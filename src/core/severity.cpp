#include "core/severity.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/band_pair_driver.hpp"
#include "core/edge_sampling.hpp"
#include "core/witness_kernels.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tiv::core {
namespace {

// Dynamic-scheduling grain for the batched per-edge engine: per-edge cost
// is one O(stride) row scan, so a handful of edges per claimed chunk keeps
// dispatch overhead negligible without starving the balancer.
constexpr std::size_t kEdgeBatchGrain = 8;

void check_view_matches(const DelayMatrix& matrix,
                        const DelayMatrixView& view) {
  if (view.size() != matrix.size()) {
    throw std::invalid_argument(
        "DelayMatrixView size does not match the analyzer's matrix");
  }
}

/// The skeleton of every edge_*_batch: view selection, dynamic scheduling,
/// and Out{} (all zero) for self and unmeasured edges. lane(view, a, c,
/// d_ac) computes one measured edge with the branch-free kernels over the
/// packed view, so every batch matches the all_severities cells bit for bit.
template <typename Out, typename Lane>
std::vector<Out> edge_batch(const DelayMatrix& matrix,
                            std::span<const std::pair<HostId, HostId>> edges,
                            const DelayMatrixView* view, Lane&& lane) {
  std::vector<Out> out(edges.size());
  std::optional<DelayMatrixView> local;
  if (view != nullptr) {
    check_view_matches(matrix, *view);
  } else {
    view = &local.emplace(matrix);
  }
  const DelayMatrixView& v = *view;
  parallel_for_dynamic(
      edges.size(), kEdgeBatchGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t e = begin; e < end; ++e) {
          const auto [a, c] = edges[e];
          const float d_ac = v.row(a)[c];
          out[e] = a == c || d_ac >= DelayMatrixView::kMaskedDelay
                       ? Out{}
                       : lane(v, a, c, d_ac);
        }
      });
  return out;
}

/// witness_ratio_accumulate over one full packed row pair, reduced: the
/// unnormalized severity, bit-identical to the all_severities cell.
double full_row_ratio_sum(const DelayMatrixView& v, HostId a, HostId c,
                          float d_ac) {
  double acc[kWitnessLanes] = {};
  witness_ratio_accumulate(v.row(a), v.row(c), v.stride(), d_ac, acc);
  return witness_ratio_reduce(acc);
}

}  // namespace

std::vector<double> SeverityMatrix::values_for_measured_edges(
    const DelayMatrix& matrix) const {
  std::vector<double> out;
  for (HostId i = 0; i < n_; ++i) {
    for (HostId j = i + 1; j < n_; ++j) {
      if (matrix.has(i, j)) out.push_back(at(i, j));
    }
  }
  return out;
}

EdgeTivStats TivAnalyzer::edge_stats(HostId a, HostId c) const {
  EdgeTivStats stats;
  if (!matrix_.has(a, c)) return stats;
  const float d_ac = matrix_.at(a, c);
  const auto row_a = matrix_.row(a);
  const auto row_c = matrix_.row(c);
  const HostId n = matrix_.size();
  double ratio_sum = 0.0;
  for (HostId b = 0; b < n; ++b) {
    if (b == a || b == c) continue;
    const float d_ab = row_a[b];
    const float d_bc = row_c[b];
    if (d_ab < 0.0f || d_bc < 0.0f) continue;  // missing leg
    ++stats.witness_count;
    const float detour = d_ab + d_bc;
    if (detour < d_ac && detour > 0.0f) {
      const double ratio = witness_ratio(d_ac, detour);
      ++stats.violation_count;
      ratio_sum += ratio;
      stats.max_ratio = std::max(stats.max_ratio, ratio);
    }
  }
  // Normalization is by |S| (all nodes), per the paper's definition — not by
  // the witness count — so edges in sparse neighborhoods are not inflated.
  stats.severity = ratio_sum / static_cast<double>(n);
  stats.mean_ratio = stats.violation_count == 0
                         ? 0.0
                         : ratio_sum / static_cast<double>(
                                           stats.violation_count);
  return stats;
}

double TivAnalyzer::edge_severity(HostId a, HostId c) const {
  return edge_stats(a, c).severity;
}

std::vector<EdgeTivStats> TivAnalyzer::edge_stats_batch(
    std::span<const std::pair<HostId, HostId>> edges,
    const DelayMatrixView* view) const {
  const auto nd = static_cast<double>(matrix_.size());
  return edge_batch<EdgeTivStats>(
      matrix_, edges, view,
      [&](const DelayMatrixView& v, HostId a, HostId c, float d_ac) {
        // Two vectorized passes over the same L2-resident rows: the ratio
        // sum (the all_severities lanes) and the count/min-detour scan,
        // from which the max ratio follows as one witness_ratio term (see
        // witness_violation_minmax).
        const double ratio_sum = full_row_ratio_sum(v, a, c, d_ac);
        const WitnessViolationStats vs =
            witness_violation_minmax(v.row(a), v.row(c), v.stride(), d_ac);
        EdgeTivStats stats;
        stats.violation_count = vs.count;
        stats.witness_count =
            masked_witness_count(v.mask_row(a), v.mask_row(c), v.mask_words());
        stats.max_ratio =
            vs.count == 0 ? 0.0 : witness_ratio(d_ac, vs.min_detour);
        stats.severity = ratio_sum / nd;
        stats.mean_ratio =
            vs.count == 0 ? 0.0
                          : ratio_sum / static_cast<double>(vs.count);
        return stats;
      });
}

std::vector<std::size_t> TivAnalyzer::edge_violation_count_batch(
    std::span<const std::pair<HostId, HostId>> edges,
    const DelayMatrixView* view) const {
  return edge_batch<std::size_t>(
      matrix_, edges, view,
      [](const DelayMatrixView& v, HostId a, HostId c, float d_ac) {
        return witness_violation_minmax(v.row(a), v.row(c), v.stride(), d_ac)
            .count;
      });
}

std::vector<double> TivAnalyzer::edge_severity_batch(
    std::span<const std::pair<HostId, HostId>> edges,
    const DelayMatrixView* view) const {
  const auto nd = static_cast<double>(matrix_.size());
  return edge_batch<double>(
      matrix_, edges, view,
      [&](const DelayMatrixView& v, HostId a, HostId c, float d_ac) {
        return full_row_ratio_sum(v, a, c, d_ac) / nd;
      });
}

std::vector<double> TivAnalyzer::violation_ratios(HostId a, HostId c) const {
  std::vector<double> out;
  if (!matrix_.has(a, c)) return out;
  const float d_ac = matrix_.at(a, c);
  const auto row_a = matrix_.row(a);
  const auto row_c = matrix_.row(c);
  for (HostId b = 0; b < matrix_.size(); ++b) {
    if (b == a || b == c) continue;
    const float d_ab = row_a[b];
    const float d_bc = row_c[b];
    if (d_ab < 0.0f || d_bc < 0.0f) continue;
    const float detour = d_ab + d_bc;
    if (detour < d_ac && detour > 0.0f) {
      out.push_back(witness_ratio(d_ac, detour));
    }
  }
  return out;
}

SeverityMatrix TivAnalyzer::all_severities(
    const DelayMatrixView* prebuilt) const {
  const HostId n = matrix_.size();
  if (prebuilt != nullptr) check_view_matches(matrix_, *prebuilt);
  SeverityMatrix sev(n);
  if (n < 2) return sev;
  std::optional<DelayMatrixView> local;
  if (prebuilt == nullptr) local.emplace(matrix_);
  const ViewSource src(prebuilt ? *prebuilt : *local);
  run_band_pairs<RatioKernel>(src, AllPairs{}, MatrixFinish(sev));
  return sev;
}

SeverityMatrix TivAnalyzer::all_severities_reference() const {
  const HostId n = matrix_.size();
  SeverityMatrix sev(n);
  const auto nd = static_cast<double>(n);
  // Parallel over the first endpoint; each task owns rows i and writes only
  // the (i, j>i) strip, then we mirror. The inner witness scan reads two
  // matrix rows sequentially — contiguous and branch-light.
  parallel_for(n, [&](std::size_t ai) {
    const auto a = static_cast<HostId>(ai);
    const auto row_a = matrix_.row(a);
    for (HostId c = a + 1; c < n; ++c) {
      const float d_ac = row_a[c];
      if (d_ac < 0.0f) continue;  // missing edge -> severity 0
      const auto row_c = matrix_.row(c);
      double ratio_sum = 0.0;
      for (HostId b = 0; b < n; ++b) {
        const float d_ab = row_a[b];
        const float d_bc = row_c[b];
        // b == a or b == c gives detour == d_ac, never < d_ac; missing legs
        // are negative and excluded by the detour > 0 check only when both
        // are missing, so test them explicitly.
        if (d_ab < 0.0f || d_bc < 0.0f) continue;
        const float detour = d_ab + d_bc;
        if (detour < d_ac && detour > 0.0f) {
          ratio_sum += witness_ratio(d_ac, detour);
        }
      }
      sev.set(a, c, static_cast<float>(ratio_sum / nd));
    }
  });
  return sev;
}

std::vector<std::pair<std::pair<HostId, HostId>, double>>
TivAnalyzer::sampled_severities(std::size_t count, std::uint64_t seed) const {
  // The shared sampler reproduces this function's historical draw sequence
  // exactly (it was the one dedup-correct sampler the others now share).
  const PairSample sample = sample_measured_pairs(matrix_, count, seed);
  const std::vector<double> sevs = edge_severity_batch(sample.pairs);
  std::vector<std::pair<std::pair<HostId, HostId>, double>> out(
      sample.pairs.size());
  for (std::size_t e = 0; e < sample.pairs.size(); ++e) {
    out[e] = {sample.pairs[e], sevs[e]};
  }
  return out;
}

double TivAnalyzer::violating_triangle_fraction(std::size_t sample_triangles,
                                                std::uint64_t seed) const {
  const HostId n = matrix_.size();
  if (sample_triangles == 0) {
    // Exact mode: the band-pair driver's triangle counting over the view
    // (see CountKernel for the 3 * violations / witnesses accounting).
    if (n < 3) return 0.0;
    const DelayMatrixView view(matrix_);
    TriangleCountFinish counts;
    run_band_pairs<CountKernel>(ViewSource(view), AllPairs{}, counts);
    return counts.fraction();
  }
  return violating_triangle_fraction_sampled(sample_triangles, seed).fraction;
}

TivAnalyzer::TriangleFractionSample
TivAnalyzer::violating_triangle_fraction_sampled(std::size_t sample_triangles,
                                                 std::uint64_t seed) const {
  const HostId n = matrix_.size();
  TriangleFractionSample out;
  out.requested = sample_triangles;
  if (n < 3) {
    out.exhausted = sample_triangles > 0;
    return out;
  }
  auto violates = [&](HostId a, HostId b, HostId c) {
    const float ab = matrix_.at(a, b);
    const float bc = matrix_.at(b, c);
    const float ac = matrix_.at(a, c);
    if (ab < 0.0f || bc < 0.0f || ac < 0.0f) return -1;  // unmeasurable
    return (ab + bc < ac || ab + ac < bc || bc + ac < ab) ? 1 : 0;
  };
  Rng rng(seed);
  std::size_t v = 0;
  std::size_t t = 0;
  std::size_t attempts = 0;
  while (t < sample_triangles && attempts < sample_triangles * 30) {
    ++attempts;
    const auto a = static_cast<HostId>(rng.uniform_index(n));
    const auto b = static_cast<HostId>(rng.uniform_index(n));
    const auto c = static_cast<HostId>(rng.uniform_index(n));
    if (a == b || b == c || a == c) continue;
    const int r = violates(a, b, c);
    if (r < 0) continue;
    ++t;
    v += r;
  }
  out.achieved = t;
  out.exhausted = t < sample_triangles;
  out.fraction = t == 0 ? 0.0 : static_cast<double>(v) / static_cast<double>(t);
  return out;
}

}  // namespace tiv::core
