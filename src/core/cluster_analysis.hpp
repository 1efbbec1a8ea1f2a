// Severity-by-cluster analysis (paper Fig. 3 and the in-text within- vs
// cross-cluster violation counts).
#pragma once

#include <cstdint>
#include <vector>

#include "core/severity.hpp"
#include "delayspace/clustering.hpp"

namespace tiv::core {

/// Within- vs cross-cluster TIV statistics.
struct ClusterTivStats {
  double mean_violations_within = 0.0;  ///< avg #TIVs per within-cluster edge
  double mean_violations_cross = 0.0;   ///< avg #TIVs per cross-cluster edge
  double mean_severity_within = 0.0;
  double mean_severity_cross = 0.0;
  std::size_t edges_within = 0;   ///< edges_within + edges_cross = achieved
  std::size_t edges_cross = 0;
  /// Sampled edges as requested (= measured edge count when sample_edges is
  /// 0). The duplicate-free sampler's rejection budget may exhaust on a
  /// missing-heavy matrix, leaving edges_within + edges_cross short of this.
  std::size_t edges_requested = 0;
};

/// Computes violation-count and severity averages split by whether the
/// edge's endpoints share a major cluster (noise-cluster endpoints always
/// count as cross). The severities come from `sev`; the violation counts
/// are recomputed over `sample_edges` distinct random measured edges
/// (0 = all edges) through the batched masked-view edge engine
/// (TivAnalyzer::edge_violation_count_batch). Pass `view` (a packed view
/// of `matrix`) to reuse a view the caller already built.
ClusterTivStats cluster_tiv_stats(const DelayMatrix& matrix,
                                  const SeverityMatrix& sev,
                                  const delayspace::Clustering& clustering,
                                  std::size_t sample_edges = 0,
                                  std::uint64_t seed = 77,
                                  const delayspace::DelayMatrixView* view =
                                      nullptr);

/// The Fig. 3 matrix: severities reordered so nodes of the same cluster are
/// adjacent (largest cluster first, noise last), downsampled to a
/// grid_size x grid_size grid by block averaging so it can be plotted.
/// grid[r][g] is the mean severity of the block.
std::vector<std::vector<double>> severity_cluster_grid(
    const DelayMatrix& matrix, const SeverityMatrix& sev,
    const delayspace::Clustering& clustering, std::size_t grid_size);

}  // namespace tiv::core
