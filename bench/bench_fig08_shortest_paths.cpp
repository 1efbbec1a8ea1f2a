// Figure 8 (DS^2): top — fraction of edges whose endpoints share a major
// cluster vs edge delay; bottom — distribution of *overlay shortest path*
// lengths vs direct edge delay. Paper shape: edges beyond ~200 ms are
// mostly cross-cluster; between ~300-550 ms the shortest alternative path
// stays flat (many alternatives -> severe TIVs), then jumps for the longest
// edges (even the best path is long -> no severe TIVs possible).
//
// Records: meta (also carries the cluster and measured-pair counts),
// within_cluster_bin, shortest_path_bin.
#include <iostream>

#include "bench_common.hpp"
#include "delayspace/clustering.hpp"
#include "delayspace/overlay.hpp"
#include "util/flags.hpp"

namespace {

// Local variant of bench_common's emit_bins_json keeping fig08's original
// "delay_ms" x-key (the shared helper emits a generic "x").
void emit_delay_bins_json(tiv::bench::JsonArrayWriter& json,
                          const std::string& section,
                          const std::vector<tiv::Bin>& bins) {
  for (const tiv::Bin& b : bins) {
    json.object()
        .field("section", section)
        .field("delay_ms", b.x_center, 1)
        .field("p10", b.p10, 3)
        .field("median", b.median, 3)
        .field("p90", b.p90, 3)
        .field("mean", b.mean, 3)
        .field("count", b.count);
  }
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 600);
  const double bin_ms = flags.get_double("bin-ms", 25.0);
  reject_unknown_flags(flags);

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  const auto& m = space.measured;
  const auto clustering = delayspace::cluster_delay_space(m, {});
  const delayspace::OverlayPaths overlay(m);

  BinnedSeries within(0.0, 1000.0, bin_ms);
  BinnedSeries shortest(0.0, 1000.0, bin_ms);
  for (delayspace::HostId i = 0; i < m.size(); ++i) {
    for (delayspace::HostId j = i + 1; j < m.size(); ++j) {
      if (!m.has(i, j)) continue;
      const double d = m.at(i, j);
      within.add(d, clustering.same_cluster(i, j) ? 1.0 : 0.0);
      shortest.add(d, overlay.delay(i, j));
    }
  }
  BenchReport json(std::cout, "bench_fig08_shortest_paths");
  json.meta(cfg)
      .field("clusters", clustering.num_clusters())
      .field("measured_pairs", m.measured_pair_count());
  emit_delay_bins_json(json, "within_cluster_bin", within.bins());
  emit_delay_bins_json(json, "shortest_path_bin", shortest.bins());
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
