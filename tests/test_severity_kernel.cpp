// Regression tests for the blocked, branch-free severity kernel and the
// machinery it rides on: the packed DelayMatrixView and the persistent
// thread pool's dynamic scheduling.
//
// The contract under test: all_severities (tiled, branch-free, dynamically
// scheduled) must match the scalar edge_stats reference to within 1e-6
// relative on dense and sparse matrices, including the implicit b == a /
// b == c witness exclusions and exact-equality (non-)violations.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/severity.hpp"
#include "core/witness_kernels.hpp"
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

void expect_matches_scalar_reference(const DelayMatrix& m) {
  const TivAnalyzer a(m);
  const SeverityMatrix blocked = a.all_severities();
  const SeverityMatrix reference = a.all_severities_reference();
  const HostId n = m.size();
  for (HostId i = 0; i < n; ++i) {
    for (HostId j = i + 1; j < n; ++j) {
      const double got = blocked.at(i, j);
      const double scalar = a.edge_stats(i, j).severity;
      const double ref = reference.at(i, j);
      const double tol = 1e-6 * std::max({1.0, std::abs(got),
                                          std::abs(scalar)});
      EXPECT_NEAR(got, scalar, tol) << "edge (" << i << ", " << j << ")";
      // Against the seed bulk kernel the match is bit-exact: identical
      // per-term arithmetic, only the summation order differs, and both
      // round through float storage.
      EXPECT_FLOAT_EQ(blocked.at(i, j), static_cast<float>(ref))
          << "edge (" << i << ", " << j << ")";
    }
  }
}

TEST(SeverityKernel, MatchesScalarReferenceDense) {
  expect_matches_scalar_reference(random_matrix(133, 0.0, 11));
}

TEST(SeverityKernel, MatchesScalarReferenceThirtyPercentMissing) {
  expect_matches_scalar_reference(random_matrix(133, 0.3, 12));
}

TEST(SeverityKernel, MatchesScalarReferenceMultithreaded) {
  set_parallel_thread_count(4);
  expect_matches_scalar_reference(random_matrix(97, 0.3, 13));
  set_parallel_thread_count(0);
}

TEST(SeverityKernel, NonMultipleOfTileAndLaneSizes) {
  // Exercise the padded tail: sizes straddling the 16-float lane/tile edge.
  for (const HostId n : {15u, 16u, 17u, 31u, 33u}) {
    expect_matches_scalar_reference(random_matrix(n, 0.2, 100 + n));
  }
}

TEST(SeverityKernel, SelfWitnessExclusion) {
  // b == a and b == c witnesses have detour exactly d_ac; counting them
  // (ratio 1.0 each) would inflate every severity by 2/n. The violating
  // edge here has a true severity computable by hand.
  DelayMatrix m(4);
  m.set(0, 1, 5.0f);
  m.set(1, 2, 5.0f);
  m.set(0, 2, 100.0f);
  m.set(0, 3, 200.0f);
  m.set(1, 3, 200.0f);
  m.set(2, 3, 200.0f);
  const SeverityMatrix sev = TivAnalyzer(m).all_severities();
  EXPECT_NEAR(sev.at(0, 2), 2.5, 1e-6);  // only witness 1: (100/10)/4
  EXPECT_FLOAT_EQ(sev.at(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(sev.at(0, 3), 0.0f);
}

TEST(SeverityKernel, ExactEqualityIsNotAViolation) {
  // Colinear points: every detour equals d_ac exactly. The kernel's strict
  // `detour < d_ac` must not fire on equality (float arithmetic is exact
  // for these values).
  DelayMatrix m(5);
  const float pos[5] = {0, 8, 24, 56, 120};
  for (HostId i = 0; i < 5; ++i) {
    for (HostId j = i + 1; j < 5; ++j) m.set(i, j, pos[j] - pos[i]);
  }
  const SeverityMatrix sev = TivAnalyzer(m).all_severities();
  for (HostId i = 0; i < 5; ++i) {
    for (HostId j = i + 1; j < 5; ++j) EXPECT_FLOAT_EQ(sev.at(i, j), 0.0f);
  }
}

TEST(SeverityKernel, TriangleFractionMatchesBruteForce) {
  const DelayMatrix m = random_matrix(61, 0.25, 17);
  const HostId n = m.size();
  std::size_t total = 0;
  std::size_t violating = 0;
  for (HostId a = 0; a < n; ++a) {
    for (HostId b = a + 1; b < n; ++b) {
      for (HostId c = b + 1; c < n; ++c) {
        const float ab = m.at(a, b);
        const float bc = m.at(b, c);
        const float ac = m.at(a, c);
        if (ab < 0.0f || bc < 0.0f || ac < 0.0f) continue;
        ++total;
        violating += (ab + bc < ac || ab + ac < bc || bc + ac < ab) ? 1 : 0;
      }
    }
  }
  ASSERT_GT(total, 0u);
  const double expected =
      static_cast<double>(violating) / static_cast<double>(total);
  EXPECT_NEAR(TivAnalyzer(m).violating_triangle_fraction(), expected, 1e-12);
}

TEST(SeverityKernel, SampledSeveritiesAreDistinct) {
  // Sampling is without replacement: near-exhaustive sampling of a small
  // matrix must not return any edge twice.
  const DelayMatrix m = random_matrix(12, 0.0, 19);  // 66 edges
  const auto samples = TivAnalyzer(m).sampled_severities(60, 5);
  EXPECT_EQ(samples.size(), 60u);
  std::set<std::pair<HostId, HostId>> unique;
  for (const auto& [edge, sev] : samples) {
    EXPECT_LT(edge.first, edge.second);
    EXPECT_TRUE(unique.insert(edge).second)
        << "duplicate edge (" << edge.first << ", " << edge.second << ")";
  }
}

// Differential test of witness_ratio_accumulate (block-sparse on AVX-512
// builds) against the dense reference scan: the lane accumulators must
// match bit for bit, whether the row is scanned in one call or fed in
// ascending chunks with the accumulators carried across calls (the
// StoreSource pattern).
enum class Violators { kNone, kAll, kSparse, kClustered, kSpecial };

struct RatioCase {
  std::vector<float> ra, rc;
  float dac = 0.0f;
  double acc[kWitnessLanes] = {};
};

RatioCase make_ratio_case(Rng& rng, std::size_t len, Violators kind) {
  RatioCase c;
  c.dac = static_cast<float>(rng.uniform(1.0, 300.0));
  const auto leg = [&](double lo, double hi) {
    return static_cast<float>(c.dac * rng.uniform(lo, hi));
  };
  const auto tiny_leg = [&] {
    return static_cast<float>(c.dac * 0.45 *
                              std::pow(10.0, -rng.uniform(0.0, 6.0)));
  };
  std::size_t run = 0;  // kClustered: columns left in the current run
  for (std::size_t b = 0; b < len; ++b) {
    bool violates = false;
    switch (kind) {
      case Violators::kNone: break;
      case Violators::kAll: violates = true; break;
      case Violators::kSparse: violates = rng.bernoulli(0.02); break;
      case Violators::kClustered:
        if (run == 0 && rng.bernoulli(0.01)) run = 1 + rng.uniform_index(40);
        violates = run != 0;
        run -= run != 0;
        break;
      case Violators::kSpecial: violates = rng.bernoulli(0.1); break;
    }
    // Violating legs sum to at most 0.9 dac, others to at least dac. The
    // violating ones are log-uniform over six decades, so the terms span
    // ~20 binades and the double sums round: a change in the order of the
    // additions shows up in the low bits.
    float a = violates ? tiny_leg() : leg(0.5, 2.0);
    float d = violates ? tiny_leg() : leg(0.5, 2.0);
    if (kind == Violators::kSpecial && !violates) {
      switch (rng.uniform_index(4)) {
        case 0: a = d = 0.5f * c.dac; break;  // detour == dac exactly
        case 1: a = d = 0.0f; break;          // zero detour
        case 2: a = DelayMatrixView::kMaskedDelay; break;
        default: d = DelayMatrixView::kMaskedDelay; break;
      }
    }
    c.ra.push_back(a);
    c.rc.push_back(d);
  }
  if (rng.bernoulli(0.5)) {
    for (double& x : c.acc) x = rng.uniform(0.0, 100.0);
  }
  return c;
}

TEST(WitnessRatioKernel, MatchesDenseScanBitForBit) {
  Rng rng(2024);
  std::vector<std::size_t> lens = {16, 32, 1008, 1024, 1040, 8192};
  for (int i = 0; i < 24; ++i) {
    lens.push_back(16 * (1 + rng.uniform_index(512)));
  }
  // 64 is the default tile_dim and 48 another valid one; calls shorter
  // than 128 columns run the dense scan, and 1024 is one bit word.
  const std::size_t chunks[] = {16, 48, 64, 128, 1024};
  for (const std::size_t len : lens) {
    ASSERT_EQ(len % kWitnessBlock, 0u) << "the kernel's precondition";
    for (const Violators kind :
         {Violators::kNone, Violators::kAll, Violators::kSparse,
          Violators::kClustered, Violators::kSpecial}) {
      const RatioCase c = make_ratio_case(rng, len, kind);
      const auto where = ::testing::Message() << "len " << len << " kind "
                                              << static_cast<int>(kind);
      double want[kWitnessLanes];
      std::memcpy(want, c.acc, sizeof want);
      witness_ratio_accumulate_dense(c.ra.data(), c.rc.data(), len, c.dac,
                                     want);
      if (kind == Violators::kNone) {
        EXPECT_EQ(std::memcmp(want, c.acc, sizeof want), 0) << where;
      } else if (kind == Violators::kAll) {
        for (std::size_t l = 0; l < kWitnessLanes; ++l) {
          EXPECT_GT(want[l], c.acc[l]) << where;
        }
      }
      double got[kWitnessLanes];
      std::memcpy(got, c.acc, sizeof got);
      witness_ratio_accumulate(c.ra.data(), c.rc.data(), len, c.dac, got);
      EXPECT_EQ(std::memcmp(got, want, sizeof got), 0) << where;
      for (const std::size_t chunk : chunks) {
        std::memcpy(got, c.acc, sizeof got);
        for (std::size_t b = 0; b < len; b += chunk) {
          witness_ratio_accumulate(c.ra.data() + b, c.rc.data() + b,
                                   std::min(chunk, len - b), c.dac, got);
        }
        EXPECT_EQ(std::memcmp(got, want, sizeof got), 0)
            << where << " chunk " << chunk;
      }
    }
  }
}

TEST(DelayMatrixViewTest, PackingAndMask) {
  DelayMatrix m(5);
  m.set(0, 1, 5.0f);
  m.set(0, 3, 7.0f);
  m.set(2, 3, 9.0f);
  const DelayMatrixView view(m);
  EXPECT_EQ(view.size(), 5u);
  EXPECT_EQ(view.stride() % DelayMatrixView::kLaneFloats, 0u);
  EXPECT_GE(view.stride(), 5u);
  // Measured entries survive; missing and padding become the sentinel; the
  // diagonal stays zero.
  EXPECT_FLOAT_EQ(view.row(0)[1], 5.0f);
  EXPECT_FLOAT_EQ(view.row(0)[3], 7.0f);
  EXPECT_FLOAT_EQ(view.row(0)[0], 0.0f);
  EXPECT_FLOAT_EQ(view.row(0)[2], DelayMatrixView::kMaskedDelay);
  for (std::size_t b = 5; b < view.stride(); ++b) {
    EXPECT_FLOAT_EQ(view.row(0)[b], DelayMatrixView::kMaskedDelay);
  }
  // Mask bit b of row i <=> has(i, b); own bit never set.
  for (HostId i = 0; i < 5; ++i) {
    for (HostId b = 0; b < 5; ++b) {
      const bool bit =
          (view.mask_row(i)[b >> 6] >> (b & 63)) & 1;
      EXPECT_EQ(bit, m.has(i, b)) << "(" << i << ", " << b << ")";
    }
  }
  // Witnesses of (0, 3): b must have measured legs to both 0 and 3.
  // Node 1: 0-1 measured, 1-3 missing. Node 2: 0-2 missing. Node 4: none.
  const auto witness_count = [](const DelayMatrixView& v, HostId a, HostId c) {
    return core::masked_witness_count(v.mask_row(a), v.mask_row(c),
                                      v.mask_words());
  };
  EXPECT_EQ(witness_count(view, 0, 3), 0u);
  // Witnesses of (0, 2) once 1-2 is measured: node 1 (0-1, 1-2) and node 3
  // (0-3, 2-3) both have legs to each endpoint.
  m.set(1, 2, 4.0f);
  const DelayMatrixView view2(m);
  EXPECT_EQ(witness_count(view2, 0, 2), 2u);
}

TEST(DelayMatrixViewTest, RowsAreCacheLineAligned) {
  const DelayMatrix m = random_matrix(33, 0.1, 23);
  const DelayMatrixView view(m);
  for (HostId i = 0; i < m.size(); ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(view.row(i)) % 64, 0u);
  }
}

TEST(DelayMatrixViewTest, ParallelBuildMatchesRowByRowRepack) {
  // The constructor packs rows (and their padding) under parallel_for; a
  // view built from an all-missing matrix at 1 thread and then brought to
  // `m` by repack_row, one row at a time, must hold the same bytes:
  // delays, padding and mask words.
  for (const HostId n : {0u, 1u, 7u, 65u}) {
    const DelayMatrix m = random_matrix(n, 0.2, 300 + n);
    set_parallel_thread_count(1);
    DelayMatrixView repacked{DelayMatrix(n)};
    for (HostId i = 0; i < n; ++i) repacked.repack_row(m, i);
    for (const std::size_t threads : {1u, 4u}) {
      set_parallel_thread_count(threads);
      const DelayMatrixView built(m);
      ASSERT_EQ(built.stride(), repacked.stride());
      ASSERT_EQ(built.mask_words(), repacked.mask_words());
      for (HostId i = 0; i < n; ++i) {
        EXPECT_EQ(std::memcmp(built.row(i), repacked.row(i),
                              built.stride() * sizeof(float)),
                  0)
            << "n " << n << " threads " << threads << " row " << i;
        EXPECT_EQ(std::memcmp(built.mask_row(i), repacked.mask_row(i),
                              built.mask_words() * sizeof(std::uint64_t)),
                  0)
            << "n " << n << " threads " << threads << " mask row " << i;
        for (std::size_t b = n; b < built.stride(); ++b) {
          EXPECT_EQ(built.row(i)[b], DelayMatrixView::kMaskedDelay)
              << "n " << n << " threads " << threads << " padding " << i;
        }
      }
    }
  }
  set_parallel_thread_count(0);
}

TEST(ParallelDynamic, CoversEveryIndexExactlyOnce) {
  set_parallel_thread_count(4);
  std::vector<std::atomic<int>> hits(1013);
  parallel_for_dynamic(hits.size(), 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  set_parallel_thread_count(0);
}

TEST(ParallelDynamic, NestedCallsRunInline) {
  set_parallel_thread_count(4);
  std::atomic<long> sum{0};
  parallel_for(8, [&](std::size_t) {
    // Must not deadlock; the nested loop runs serially on this thread.
    parallel_for_dynamic(100, 3, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) sum.fetch_add(static_cast<long>(i));
    });
  });
  EXPECT_EQ(sum.load(), 8 * 4950);
  set_parallel_thread_count(0);
}

TEST(ParallelDynamic, PoolSurvivesRepeatedResizing) {
  for (int round = 0; round < 20; ++round) {
    set_parallel_thread_count(1 + round % 5);
    std::atomic<long> sum{0};
    parallel_for_dynamic(500, 11, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) sum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(sum.load(), 124750);
  }
  set_parallel_thread_count(0);
}

TEST(ParallelDynamic, ConcurrentTopLevelCallersAreSerialized) {
  // The pool's job slot is single-occupancy; simultaneous top-level loops
  // from different threads must queue, not corrupt each other's chunks.
  set_parallel_thread_count(3);
  std::atomic<long> sum_a{0};
  std::atomic<long> sum_b{0};
  std::thread other([&] {
    for (int r = 0; r < 25; ++r) {
      parallel_for_dynamic(400, 9, [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) sum_a.fetch_add(1);
      });
    }
  });
  for (int r = 0; r < 25; ++r) {
    parallel_for(400, [&](std::size_t) { sum_b.fetch_add(1); });
  }
  other.join();
  EXPECT_EQ(sum_a.load(), 25 * 400);
  EXPECT_EQ(sum_b.load(), 25 * 400);
  set_parallel_thread_count(0);
}

TEST(ParallelDynamic, SmallJobsDoNotShrinkThePool) {
  // Alternating large and tiny loops must not thrash the pool: a job with
  // fewer chunks than threads leaves surplus workers idle, it does not
  // restart the pool. (Behavioral check: results stay correct and the
  // sequence completes quickly even on 1 hardware core.)
  set_parallel_thread_count(4);
  for (int r = 0; r < 50; ++r) {
    std::atomic<long> big{0};
    parallel_for_dynamic(1000, 10, [&](std::size_t b, std::size_t e) {
      big.fetch_add(static_cast<long>(e - b));
    });
    EXPECT_EQ(big.load(), 1000);
    std::atomic<long> tiny{0};
    parallel_for(2, [&](std::size_t) { tiny.fetch_add(1); });
    EXPECT_EQ(tiny.load(), 2);
  }
  set_parallel_thread_count(0);
}

TEST(ParallelDynamic, CallerThreadExceptionPropagatesCleanly) {
  set_parallel_thread_count(3);
  // An exception on the *calling* thread (workers throwing terminates by
  // contract) must unwind without poisoning the pool. The caller claims
  // chunks alongside the workers, so with 64 single-index chunks it throws
  // on some attempt with overwhelming probability.
  const auto caller = std::this_thread::get_id();
  bool threw = false;
  for (int attempt = 0; attempt < 100 && !threw; ++attempt) {
    try {
      parallel_for_dynamic(64, 1, [&](std::size_t, std::size_t) {
        if (std::this_thread::get_id() == caller) {
          throw std::runtime_error("boom");
        }
      });
    } catch (const std::runtime_error&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw);
  // The pool must still dispatch parallel work correctly afterwards.
  std::atomic<long> sum{0};
  parallel_for_dynamic(300, 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 300 * 299 / 2);
  set_parallel_thread_count(0);
}

TEST(ParallelDynamic, ZeroAndTinyRanges) {
  set_parallel_thread_count(3);
  int calls = 0;
  parallel_for_dynamic(0, 4, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> ones{0};
  parallel_for_dynamic(1, 100, [&](std::size_t b, std::size_t e) {
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 1u);
    ones.fetch_add(1);
  });
  EXPECT_EQ(ones.load(), 1);
  set_parallel_thread_count(0);
}

}  // namespace
}  // namespace tiv::core
