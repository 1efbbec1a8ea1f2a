// The batched masked-view edge engine and the shared duplicate-free pair
// sampler (core/edge_sampling.*, TivAnalyzer::edge_stats_batch /
// edge_severity_batch).
//
// Contracts under test:
//  - sample_measured_pairs returns distinct measured pairs and reports
//    achieved-vs-requested instead of silently under-sampling when the
//    rejection budget exhausts on a missing-heavy matrix;
//  - the batched engine's integer counts equal the scalar edge_stats
//    counts exactly, its severities are bit-identical to the
//    all_severities kernel's per-edge values, and both hold on dense,
//    30%-missing, missing-heavy, and tiny (n < 8) matrices;
//  - a caller-provided prebuilt view produces the same results as the
//    locally built one;
//  - every scalar oracle and kernel path computes the one witness_ratio
//    triangulation term (float division widened to double).
#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/edge_sampling.hpp"
#include "core/severity.hpp"
#include "core/witness_kernels.hpp"
#include "delayspace/datasets.hpp"
#include "delayspace/delay_matrix.hpp"
#include "matrix_test_utils.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tiv::core {
namespace {

using delayspace::DelayMatrix;
using delayspace::DelayMatrixView;
using delayspace::HostId;
using tiv::test::random_matrix;

// --- Duplicate-free sampling -----------------------------------------------

TEST(SampleMeasuredPairs, NearExhaustiveSamplingYieldsDistinctPairs) {
  // 12 hosts, dense: 66 edges. Asking for 60 of them forces the sampler to
  // reject many duplicates; every returned pair must still be distinct.
  const DelayMatrix m = random_matrix(12, 0.0, 19);
  const PairSample sample = sample_measured_pairs(m, 60, 5);
  EXPECT_EQ(sample.requested, 60u);
  EXPECT_EQ(sample.achieved(), 60u);
  EXPECT_FALSE(sample.exhausted);
  std::set<std::pair<HostId, HostId>> unique;
  for (const auto& [i, j] : sample.pairs) {
    EXPECT_LT(i, j);
    EXPECT_TRUE(m.has(i, j));
    EXPECT_TRUE(unique.insert({i, j}).second)
        << "duplicate pair (" << i << ", " << j << ")";
  }
}

TEST(SampleMeasuredPairs, MostlyMissingMatrixReportsAchievedCount) {
  // Only 5 measured edges among 780 pairs: a request for 200 must exhaust
  // the attempt budget and say so, not silently return a short vector.
  DelayMatrix m(40);
  for (HostId j = 1; j <= 5; ++j) m.set(0, j, 10.0f * j);
  const PairSample sample = sample_measured_pairs(m, 200, 7);
  EXPECT_EQ(sample.requested, 200u);
  EXPECT_LE(sample.achieved(), 5u);
  EXPECT_LT(sample.achieved(), sample.requested);
  EXPECT_TRUE(sample.exhausted);
  std::set<std::pair<HostId, HostId>> unique;
  for (const auto& [i, j] : sample.pairs) {
    EXPECT_TRUE(m.has(i, j));
    EXPECT_TRUE(unique.insert({i, j}).second);
  }
}

TEST(SampleMeasuredPairs, RequirePositiveRejectsZeroDelays) {
  DelayMatrix m(6);
  m.set(0, 1, 0.0f);  // measured but zero
  m.set(2, 3, 5.0f);
  m.set(4, 5, 7.0f);
  PairSampleOptions opt;
  opt.require_positive = true;
  const PairSample sample = sample_measured_pairs(m, 10, 3, opt);
  EXPECT_EQ(sample.achieved(), 2u);
  for (const auto& [i, j] : sample.pairs) EXPECT_GT(m.at(i, j), 0.0f);
}

TEST(SampleMeasuredPairs, TinyAndEmptyMatricesExhaustImmediately) {
  const DelayMatrix empty(0);
  const PairSample s0 = sample_measured_pairs(empty, 10, 1);
  EXPECT_EQ(s0.achieved(), 0u);
  EXPECT_TRUE(s0.exhausted);
  const DelayMatrix one(1);
  const PairSample s1 = sample_measured_pairs(one, 10, 1);
  EXPECT_EQ(s1.achieved(), 0u);
  EXPECT_TRUE(s1.exhausted);
}

TEST(SampleMeasuredPairs, UnboundedCountReturnsEveryMeasuredPair) {
  // count = SIZE_MAX (what --edge-samples=-1 casts to) must neither size
  // the reservations by the request nor spin on the saturated budget: the
  // sampler stops once every measured pair has been returned, and the
  // draws up to that point are the ones any smaller count sees.
  for (const double missing : {0.0, 0.5}) {
    const DelayMatrix m = random_matrix(12, missing, 19);
    const PairSample all = sample_measured_pairs(
        m, std::numeric_limits<std::size_t>::max(), 5);
    EXPECT_TRUE(all.exhausted);
    EXPECT_EQ(all.achieved(), m.measured_pair_count()) << missing;
    const std::set<std::pair<HostId, HostId>> unique(all.pairs.begin(),
                                                     all.pairs.end());
    EXPECT_EQ(unique.size(), all.pairs.size());
    const PairSample some = sample_measured_pairs(m, 20, 5);
    ASSERT_EQ(some.achieved(), 20u);
    EXPECT_TRUE(std::equal(some.pairs.begin(), some.pairs.end(),
                           all.pairs.begin()));
  }
}

TEST(SampleMeasuredPairs, MatchesSampledSeveritiesDrawSequence) {
  // The shared sampler must reproduce the exact edges sampled_severities
  // has always drawn for a given seed (it inherited that sampler).
  delayspace::DelayMatrix m = random_matrix(50, 0.2, 23);
  const TivAnalyzer analyzer(m);
  const auto samples = analyzer.sampled_severities(80, 42);
  const PairSample sample = sample_measured_pairs(m, 80, 42);
  ASSERT_EQ(samples.size(), sample.pairs.size());
  for (std::size_t e = 0; e < samples.size(); ++e) {
    EXPECT_EQ(samples[e].first, sample.pairs[e]);
  }
}

// --- Batched edge engine ----------------------------------------------------

std::vector<std::pair<HostId, HostId>> all_pairs(HostId n) {
  std::vector<std::pair<HostId, HostId>> out;
  for (HostId i = 0; i < n; ++i) {
    for (HostId j = i; j < n; ++j) out.emplace_back(i, j);  // includes i == j
  }
  return out;
}

void expect_batch_matches_scalar(const DelayMatrix& m) {
  const TivAnalyzer analyzer(m);
  const auto edges = all_pairs(m.size());
  const DelayMatrixView view(m);
  // Both the prebuilt-view path and the self-building path must agree with
  // the scalar reference.
  const auto with_view = analyzer.edge_stats_batch(edges, &view);
  const auto self_built = analyzer.edge_stats_batch(edges);
  const auto severities = analyzer.edge_severity_batch(edges, &view);
  const auto counts = analyzer.edge_violation_count_batch(edges, &view);
  ASSERT_EQ(with_view.size(), edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [a, c] = edges[e];
    const EdgeTivStats scalar = analyzer.edge_stats(a, c);
    const EdgeTivStats& batch = with_view[e];
    // Integer counts: exact (both the full-stats and count-only batches).
    EXPECT_EQ(batch.violation_count, scalar.violation_count)
        << "edge (" << a << ", " << c << ")";
    EXPECT_EQ(counts[e], scalar.violation_count)
        << "edge (" << a << ", " << c << ")";
    EXPECT_EQ(batch.witness_count, scalar.witness_count)
        << "edge (" << a << ", " << c << ")";
    // max_ratio terms are computed identically in both paths: exact.
    EXPECT_DOUBLE_EQ(batch.max_ratio, scalar.max_ratio);
    // Sums differ only in lane order: ~1e-15 relative.
    const double tol =
        1e-12 * std::max({1.0, std::abs(batch.severity),
                          std::abs(scalar.severity)});
    EXPECT_NEAR(batch.severity, scalar.severity, tol)
        << "edge (" << a << ", " << c << ")";
    EXPECT_NEAR(batch.mean_ratio, scalar.mean_ratio,
                1e-12 * std::max(1.0, std::abs(scalar.mean_ratio)));
    // severity-only batch equals the stats batch bit for bit (same kernel
    // lanes, same reduction).
    EXPECT_EQ(severities[e], batch.severity);
    // The self-building path packs its own view: the same scan, bit for
    // bit.
    EXPECT_EQ(self_built[e].violation_count, scalar.violation_count);
    EXPECT_EQ(self_built[e].witness_count, scalar.witness_count);
    EXPECT_EQ(self_built[e].severity, batch.severity);
  }
}

TEST(EdgeStatsBatch, MatchesScalarDense) {
  expect_batch_matches_scalar(random_matrix(64, 0.0, 31));
}

TEST(EdgeStatsBatch, MatchesScalarThirtyPercentMissing) {
  expect_batch_matches_scalar(random_matrix(64, 0.3, 32));
}

TEST(EdgeStatsBatch, MatchesScalarMissingHeavy) {
  expect_batch_matches_scalar(random_matrix(48, 0.9, 33));
}

TEST(EdgeStatsBatch, MatchesScalarTinyMatrices) {
  for (const HostId n : {2u, 3u, 4u, 5u, 7u}) {
    expect_batch_matches_scalar(random_matrix(n, 0.2, 200 + n));
  }
}

TEST(EdgeStatsBatch, SeverityBitIdenticalToAllSeveritiesKernel) {
  // The batch kernel feeds the same accumulator lanes and reduction tree as
  // the blocked all-edges kernel, so after the same float rounding the two
  // must agree bit for bit.
  const DelayMatrix m = random_matrix(70, 0.25, 37);
  const TivAnalyzer analyzer(m);
  const DelayMatrixView view(m);
  const SeverityMatrix sev = analyzer.all_severities(&view);
  std::vector<std::pair<HostId, HostId>> edges;
  for (HostId i = 0; i < m.size(); ++i) {
    for (HostId j = i + 1; j < m.size(); ++j) edges.emplace_back(i, j);
  }
  const auto batch = analyzer.edge_severity_batch(edges, &view);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    EXPECT_EQ(static_cast<float>(batch[e]),
              sev.at(edges[e].first, edges[e].second))
        << "edge (" << edges[e].first << ", " << edges[e].second << ")";
  }
}

TEST(EdgeStatsBatch, SmallBatchWithoutViewBitIdenticalToAllSeverities) {
  // A batch far smaller than the matrix (edges * 4 < n), given no view,
  // still runs the packed-view scan: every severity is bit for bit the
  // prebuilt-view batch's double and the all_severities cell, and every
  // count is the scalar count. Delays span twelve decades, so ratio terms
  // span more exponents than a double holds and a sum in any other order
  // (a sequential scalar scan) rounds differently.
  DelayMatrix m(400);
  Rng rng(38);
  for (HostId i = 0; i < m.size(); ++i) {
    for (HostId j = i + 1; j < m.size(); ++j) {
      if (rng.bernoulli(0.2)) continue;
      m.set(i, j, static_cast<float>(std::pow(10.0, rng.uniform(-6.0, 6.0))));
    }
  }
  const TivAnalyzer analyzer(m);
  const DelayMatrixView view(m);
  const SeverityMatrix sev = analyzer.all_severities(&view);
  const PairSample sample = sample_measured_pairs(m, 99, 9);
  ASSERT_EQ(sample.achieved(), 99u);
  ASSERT_LT(4 * sample.pairs.size(), m.size());
  const auto with_view = analyzer.edge_severity_batch(sample.pairs, &view);
  const auto severities = analyzer.edge_severity_batch(sample.pairs);
  const auto stats = analyzer.edge_stats_batch(sample.pairs);
  const auto counts = analyzer.edge_violation_count_batch(sample.pairs);
  for (std::size_t e = 0; e < sample.pairs.size(); ++e) {
    const auto [a, c] = sample.pairs[e];
    SCOPED_TRACE(::testing::Message() << "edge (" << a << ", " << c << ")");
    EXPECT_EQ(severities[e], with_view[e]);
    EXPECT_EQ(static_cast<float>(severities[e]), sev.at(a, c));
    EXPECT_EQ(stats[e].severity, severities[e]);
    const EdgeTivStats scalar = analyzer.edge_stats(a, c);
    EXPECT_EQ(stats[e].violation_count, scalar.violation_count);
    EXPECT_EQ(stats[e].witness_count, scalar.witness_count);
    EXPECT_EQ(counts[e], scalar.violation_count);
  }
}

TEST(EdgeStatsBatch, UnmeasuredAndSelfEdgesAreZero) {
  DelayMatrix m(5);
  m.set(0, 1, 5.0f);
  m.set(1, 2, 7.0f);
  const TivAnalyzer analyzer(m);
  const DelayMatrixView view(m);
  const std::vector<std::pair<HostId, HostId>> edges{
      {0, 2},  // unmeasured
      {3, 3},  // self
      {0, 1},  // measured
  };
  const auto batch = analyzer.edge_stats_batch(edges, &view);
  EXPECT_EQ(batch[0].witness_count, 0u);
  EXPECT_DOUBLE_EQ(batch[0].severity, 0.0);
  EXPECT_EQ(batch[1].witness_count, 0u);
  EXPECT_DOUBLE_EQ(batch[1].severity, 0.0);
  EXPECT_EQ(batch[2].witness_count,
            analyzer.edge_stats(0, 1).witness_count);
}

TEST(EdgeStatsBatch, AllSeveritiesAcceptsPrebuiltView) {
  const DelayMatrix m = random_matrix(40, 0.2, 41);
  const TivAnalyzer analyzer(m);
  const DelayMatrixView view(m);
  const SeverityMatrix with_view = analyzer.all_severities(&view);
  const SeverityMatrix self_built = analyzer.all_severities();
  for (HostId i = 0; i < m.size(); ++i) {
    for (HostId j = i + 1; j < m.size(); ++j) {
      EXPECT_EQ(with_view.at(i, j), self_built.at(i, j));
    }
  }
}

// --- One triangulation term on every path -----------------------------------

/// Checks that every scalar oracle and every kernel computes the same
/// witness_ratio term: violation_ratios element by element, the batched
/// max_ratio exactly, all_severities within one float ulp of the scalar
/// reference (summation order is the only difference), and the exact
/// triangle fraction equal to a brute-force triple loop.
void expect_one_term_everywhere(const DelayMatrix& m) {
  const HostId n = m.size();
  const TivAnalyzer analyzer(m);
  const DelayMatrixView view(m);
  std::vector<std::pair<HostId, HostId>> edges;
  for (HostId a = 0; a < n; ++a) {
    for (HostId c = a + 1; c < n; ++c) {
      if (m.has(a, c)) edges.emplace_back(a, c);
    }
  }
  const auto batch = analyzer.edge_stats_batch(edges, &view);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [a, c] = edges[e];
    const float d_ac = m.at(a, c);
    std::vector<double> want;
    for (HostId b = 0; b < n; ++b) {
      if (b == a || b == c || !m.has(a, b) || !m.has(b, c)) continue;
      const float detour = m.at(a, b) + m.at(b, c);
      if (detour < d_ac && detour > 0.0f) {
        want.push_back(witness_ratio(d_ac, detour));
      }
    }
    EXPECT_EQ(analyzer.violation_ratios(a, c), want)
        << "n " << n << " edge (" << a << ", " << c << ")";
    EXPECT_EQ(batch[e].max_ratio, analyzer.edge_stats(a, c).max_ratio)
        << "n " << n << " edge (" << a << ", " << c << ")";
  }

  const SeverityMatrix fast = analyzer.all_severities(&view);
  const SeverityMatrix ref = analyzer.all_severities_reference();
  const float inf = std::numeric_limits<float>::infinity();
  for (HostId a = 0; a < n; ++a) {
    for (HostId c = a + 1; c < n; ++c) {
      const float want = ref.at(a, c);
      const float got = fast.at(a, c);
      EXPECT_TRUE(got == want || got == std::nextafter(want, inf) ||
                  got == std::nextafter(want, -inf))
          << "n " << n << " edge (" << a << ", " << c << "): " << got
          << " vs " << want;
    }
  }

  std::size_t triangles = 0;
  std::size_t violating = 0;
  for (HostId a = 0; a < n; ++a) {
    for (HostId b = a + 1; b < n; ++b) {
      for (HostId c = b + 1; c < n; ++c) {
        if (!m.has(a, b) || !m.has(b, c) || !m.has(a, c)) continue;
        const float ab = m.at(a, b);
        const float bc = m.at(b, c);
        const float ac = m.at(a, c);
        ++triangles;
        violating += (ab + bc < ac || ab + ac < bc || bc + ac < ab) ? 1 : 0;
      }
    }
  }
  const double want_fraction =
      triangles == 0 ? 0.0
                     : static_cast<double>(violating) /
                           static_cast<double>(triangles);
  EXPECT_EQ(analyzer.violating_triangle_fraction(0), want_fraction)
      << "n " << n;
}

TEST(TriangulationTerm, IsFloatDivisionWidenedToDouble) {
  EXPECT_EQ(witness_ratio(1.0f, 3.0f), static_cast<double>(1.0f / 3.0f));
  EXPECT_NE(witness_ratio(1.0f, 3.0f), 1.0 / 3.0);
}

TEST(TriangulationTerm, IdenticalOnEveryPathForDs2Preset) {
  const delayspace::DelaySpace ds =
      delayspace::make_dataset(delayspace::DatasetId::kDs2, 200);
  for (const std::size_t threads : {1u, 4u}) {
    set_parallel_thread_count(threads);
    expect_one_term_everywhere(ds.measured);
  }
  set_parallel_thread_count(0);
}

TEST(TriangulationTerm, IdenticalOnEveryPathForRandomShapes) {
  Rng rng(77);
  for (HostId trial = 0; trial < 16; ++trial) {
    // n = 0..3 first (no triangle, or a single one), then n in [0, 70].
    const auto n =
        trial < 4 ? trial : static_cast<HostId>(rng.uniform_index(71));
    const double missing = rng.uniform(0.0, 0.6);
    const DelayMatrix m = random_matrix(n, missing, 500 + trial);
    for (const std::size_t threads : {1u, 4u}) {
      set_parallel_thread_count(threads);
      expect_one_term_everywhere(m);
    }
  }
  set_parallel_thread_count(0);
}

// --- Sampled triangle fraction accounting -----------------------------------

TEST(TriangleFractionSampled, ReportsAchievedOnMostlyMissingMatrix) {
  // A 30-host matrix with one measured 4-clique: only 4 measurable
  // triangles among 4060. A 50k-triangle request cannot be met.
  DelayMatrix m(30);
  for (HostId i = 0; i < 4; ++i) {
    for (HostId j = i + 1; j < 4; ++j) m.set(i, j, 10.0f + i + j);
  }
  const TivAnalyzer analyzer(m);
  const auto sampled = analyzer.violating_triangle_fraction_sampled(50000, 9);
  EXPECT_EQ(sampled.requested, 50000u);
  EXPECT_LT(sampled.achieved, sampled.requested);
  EXPECT_TRUE(sampled.exhausted);
  // The fraction must still equal the double-returning wrapper exactly.
  EXPECT_EQ(sampled.fraction, analyzer.violating_triangle_fraction(50000, 9));
}

TEST(TriangleFractionSampled, FullySampledIsNotExhausted) {
  const DelayMatrix m = random_matrix(30, 0.1, 51);
  const TivAnalyzer analyzer(m);
  const auto sampled = analyzer.violating_triangle_fraction_sampled(2000, 3);
  EXPECT_EQ(sampled.achieved, 2000u);
  EXPECT_FALSE(sampled.exhausted);
  EXPECT_EQ(sampled.fraction, analyzer.violating_triangle_fraction(2000, 3));
}

}  // namespace
}  // namespace tiv::core
