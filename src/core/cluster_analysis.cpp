#include "core/cluster_analysis.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "core/edge_sampling.hpp"

namespace tiv::core {

using delayspace::Clustering;
using delayspace::HostId;

ClusterTivStats cluster_tiv_stats(const DelayMatrix& matrix,
                                  const SeverityMatrix& sev,
                                  const Clustering& clustering,
                                  std::size_t sample_edges,
                                  std::uint64_t seed,
                                  const delayspace::DelayMatrixView* view) {
  const HostId n = matrix.size();
  std::vector<std::pair<HostId, HostId>> edges;
  std::size_t requested = 0;
  if (sample_edges == 0) {
    for (HostId i = 0; i < n; ++i) {
      for (HostId j = i + 1; j < n; ++j) {
        if (matrix.has(i, j)) edges.emplace_back(i, j);
      }
    }
    requested = edges.size();
  } else {
    // Distinct edges: the old sampler drew with replacement, so a
    // duplicate edge counted twice in the within/cross averages.
    PairSample sample = sample_measured_pairs(matrix, sample_edges, seed);
    edges = std::move(sample.pairs);
    requested = sample.requested;
  }

  const TivAnalyzer analyzer(matrix);
  const std::vector<std::size_t> counts = analyzer.edge_violation_count_batch(
      std::span<const std::pair<HostId, HostId>>(edges), view);

  ClusterTivStats out;
  out.edges_requested = requested;
  double viol_within = 0.0;
  double viol_cross = 0.0;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [i, j] = edges[e];
    const double s = sev.at(i, j);
    if (clustering.same_cluster(i, j)) {
      ++out.edges_within;
      viol_within += static_cast<double>(counts[e]);
      out.mean_severity_within += s;
    } else {
      ++out.edges_cross;
      viol_cross += static_cast<double>(counts[e]);
      out.mean_severity_cross += s;
    }
  }
  if (out.edges_within > 0) {
    out.mean_violations_within =
        viol_within / static_cast<double>(out.edges_within);
    out.mean_severity_within /= static_cast<double>(out.edges_within);
  }
  if (out.edges_cross > 0) {
    out.mean_violations_cross =
        viol_cross / static_cast<double>(out.edges_cross);
    out.mean_severity_cross /= static_cast<double>(out.edges_cross);
  }
  return out;
}

std::vector<std::vector<double>> severity_cluster_grid(
    const DelayMatrix& matrix, const SeverityMatrix& sev,
    const Clustering& clustering, std::size_t grid_size) {
  const std::vector<HostId> order = clustering.grouped_order();
  const std::size_t n = order.size();
  grid_size = std::min(grid_size, n);
  std::vector<std::vector<double>> grid(grid_size,
                                        std::vector<double>(grid_size, 0.0));
  std::vector<std::vector<std::size_t>> counts(
      grid_size, std::vector<std::size_t>(grid_size, 0));
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t gr = r * grid_size / n;
    for (std::size_t c = 0; c < n; ++c) {
      if (r == c) continue;
      const std::size_t gc = c * grid_size / n;
      // Missing entries are drawn black (severity 0), as in the paper.
      const double s =
          matrix.has(order[r], order[c]) ? sev.at(order[r], order[c]) : 0.0;
      grid[gr][gc] += s;
      ++counts[gr][gc];
    }
  }
  for (std::size_t r = 0; r < grid_size; ++r) {
    for (std::size_t c = 0; c < grid_size; ++c) {
      if (counts[r][c] > 0) grid[r][c] /= static_cast<double>(counts[r][c]);
    }
  }
  return grid;
}

}  // namespace tiv::core
