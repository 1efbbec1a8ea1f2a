// Figure 16: neighbor-selection penalty CDF of Vivaldi with the Localized
// Adjustment Term vs original Vivaldi, DS^2. Paper shape: LAT is only
// marginally different — aggregate-accuracy fixes do not fix neighbor
// selection.
//
// Records: config, cdf (penalty CDF per scheme on a log grid), quantiles,
// aggregate_error (median absolute prediction error with and without LAT).
#include <iostream>

#include "bench_common.hpp"
#include "embedding/lat.hpp"
#include "embedding/vivaldi.hpp"
#include "neighbor/selection.hpp"
#include "util/flags.hpp"

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 800);
  const auto runs = flags.get_uint<std::uint32_t>("runs", 5);
  reject_unknown_flags(flags);

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  const auto n = space.measured.size();

  embedding::VivaldiParams vp;
  vp.seed = 3 ^ cfg.seed;
  embedding::VivaldiSystem vivaldi(space.measured, vp);
  vivaldi.run(100);
  const embedding::LatAdjustment lat(vivaldi);

  neighbor::SelectionParams sp;
  sp.num_candidates = std::max<std::uint32_t>(20, n / 20);
  sp.runs = runs;
  sp.seed = 77 ^ cfg.seed;
  const neighbor::SelectionExperiment exp(space.measured, sp);

  const Cdf cdf_lat =
      exp.run([&](delayspace::HostId a, delayspace::HostId b) {
        return lat.predicted(vivaldi, a, b);
      });
  const Cdf cdf_vivaldi =
      exp.run([&](delayspace::HostId a, delayspace::HostId b) {
        return vivaldi.predicted(a, b);
      });

  // Aggregate prediction accuracy, for contrast: LAT helps here even though
  // it does not help neighbor selection.
  const auto plain_err = vivaldi.snapshot_error(50000).absolute_error();
  ErrorAccumulator lat_acc;
  for (int k = 0; k < 50000; ++k) {
    const auto i = static_cast<delayspace::HostId>(
        static_cast<std::uint32_t>(k * 2654435761u) % n);
    const auto j = static_cast<delayspace::HostId>(
        static_cast<std::uint32_t>(k * 40503u + 7u) % n);
    if (i == j || !space.measured.has(i, j)) continue;
    lat_acc.add(lat.predicted(vivaldi, i, j), space.measured.at(i, j));
  }

  BenchReport json(std::cout, "bench_fig16_lat");
  json.meta(cfg);
  json.object()
      .field("section", std::string("config"))
      .field("hosts", n)
      .field("candidates", sp.num_candidates)
      .field("runs", runs);
  const std::vector<std::string> names{"Vivaldi-with-LAT", "Vivaldi-original"};
  const std::vector<Cdf> cdfs{cdf_lat, cdf_vivaldi};
  emit_cdf_grid_json(json, "cdf", names, cdfs, log_grid(1.0, 10000.0), 0);
  emit_cdf_quantiles_json(json, "quantiles", names, cdfs);
  json.object()
      .field("section", std::string("aggregate_error"))
      .field("vivaldi_median_abs_ms", plain_err.median, 2)
      .field("lat_median_abs_ms", lat_acc.absolute_error().median, 2);
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
