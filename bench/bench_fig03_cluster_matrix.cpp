// Figure 3: TIV severity matrix reordered by cluster (largest cluster
// first, noise last) and block-averaged down to a --grid x --grid matrix.
// Paper shape: the three diagonal blocks (within-cluster) are darker than
// the off-diagonal (cross-cluster) areas. Also reports the in-text
// within/cross violation-count averages (paper: 80 within vs 206 cross for
// DS^2).
//
// The delay matrix is packed into one DelayMatrixView shared by the
// all-severities kernel and the batched cluster violation scans.
//
// Records: clustering (cluster count and sizes, noise nodes, Rand index
// against the generator's ground truth), grid (one per cell: row, col,
// mean_severity — the figure itself), cluster_stats (within/cross means,
// with the paper's full-scale reference).
#include <iostream>

#include "bench_common.hpp"
#include "core/cluster_analysis.hpp"
#include "core/severity.hpp"
#include "delayspace/clustering.hpp"
#include "util/flags.hpp"

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 500);
  const auto grid_size = flags.get_uint<std::size_t>("grid", 48);
  reject_unknown_flags(flags);

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  const core::TivAnalyzer analyzer(space.measured);
  const delayspace::DelayMatrixView view(space.measured);
  const core::SeverityMatrix sev = analyzer.all_severities(&view);

  const auto clustering = delayspace::cluster_delay_space(space.measured, {});
  const double rand_idx =
      delayspace::rand_index(clustering, space.host_cluster);
  BenchReport json(std::cout, "bench_fig03_cluster_matrix");
  json.meta(cfg);
  std::vector<std::size_t> sizes;
  for (const auto& m : clustering.members) sizes.push_back(m.size());
  json.object()
      .field("section", std::string("clustering"))
      .field("hosts", space.measured.size())
      .field("major_clusters", clustering.num_clusters())
      .field("noise_nodes", clustering.noise.size())
      .field("rand_index", rand_idx, 3)
      .field("cluster_sizes", sizes);

  const auto grid = core::severity_cluster_grid(space.measured, sev,
                                                clustering, grid_size);
  for (std::size_t r = 0; r < grid.size(); ++r) {
    for (std::size_t c = 0; c < grid[r].size(); ++c) {
      json.object()
          .field("section", std::string("grid"))
          .field("row", r)
          .field("col", c)
          .field("mean_severity", grid[r][c], 5);
    }
  }

  const core::ClusterTivStats stats = core::cluster_tiv_stats(
      space.measured, sev, clustering, 4000, 77, &view);
  json.object()
      .field("section", std::string("cluster_stats"))
      .field("edge_class", std::string("within"))
      .field("edges", stats.edges_within)
      .field("edges_requested", stats.edges_requested)
      .field("mean_tivs", stats.mean_violations_within, 2)
      .field("mean_severity", stats.mean_severity_within, 5)
      .field("paper", std::string("80"));
  json.object()
      .field("section", std::string("cluster_stats"))
      .field("edge_class", std::string("cross"))
      .field("edges", stats.edges_cross)
      .field("edges_requested", stats.edges_requested)
      .field("mean_tivs", stats.mean_violations_cross, 2)
      .field("mean_severity", stats.mean_severity_cross, 5)
      .field("paper", std::string("206"));
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
