// Figures 4-7: TIV severity vs edge delay (10 ms bins; 10th/median/90th
// percentiles), one series per dataset. Paper shape: longer edges cause
// more severe violations overall, but the relation is irregular (non-
// monotone humps, huge within-bin spread) — severity cannot be predicted
// from length.
//
// Records: samples (achieved-vs-requested sample accounting per dataset),
// bin (one per dataset and delay bin: p10/median/p90/mean severity).
#include <iostream>

#include "bench_common.hpp"
#include "core/severity.hpp"
#include "util/flags.hpp"

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 500);
  const auto samples = flags.get_uint<std::size_t>("edge-samples", 20000);
  const double bin_ms = flags.get_double("bin-ms", 10.0);
  reject_unknown_flags(flags);

  BenchReport json(std::cout, "bench_fig04_07_severity_vs_delay");
  json.meta(cfg);

  // Figures 4-7, in figure order.
  for (const auto id :
       {delayspace::DatasetId::kDs2, delayspace::DatasetId::kP2psim,
        delayspace::DatasetId::kMeridian, delayspace::DatasetId::kPlanetLab}) {
    BenchConfig c = cfg;
    if (id == delayspace::DatasetId::kPlanetLab) c.hosts = 0;
    const auto space = make_space(id, c);
    const core::TivAnalyzer analyzer(space.measured);
    const auto sampled = analyzer.sampled_severities(samples, 11 ^ cfg.seed);
    BinnedSeries series(0.0, 1000.0, bin_ms);
    for (const auto& [edge, sev] : sampled) {
      series.add(space.measured.at(edge.first, edge.second), sev);
    }
    const std::string name = delayspace::dataset_name(id);
    json.object()
        .field("section", std::string("samples"))
        .field("dataset", name)
        .field("hosts", space.measured.size())
        .field("edges_requested", samples)
        .field("edges_achieved", sampled.size());
    for (const Bin& b : series.bins()) {
      json.object()
          .field("section", std::string("bin"))
          .field("dataset", name)
          .field("delay_ms", b.x_center, 1)
          .field("p10", b.p10, 4)
          .field("median", b.median, 4)
          .field("p90", b.p90, 4)
          .field("mean", b.mean, 4)
          .field("count", b.count);
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
