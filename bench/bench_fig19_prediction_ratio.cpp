// Figure 19: TIV severity vs Vivaldi prediction ratio
// (euclidean/measured), 0.1-wide bins over [0, 5], DS^2 steady state.
// Paper shape: severely shrunk edges (ratio << 1) carry high severity;
// severity falls as the ratio rises and is ~0 beyond ratio 2. Huge spread
// within each bin — a heuristic alarm, not a severity predictor.
//
// Records: config, bins (severity stats per 0.1-wide ratio bin).
#include <iostream>

#include "bench_common.hpp"
#include "core/alert.hpp"
#include "embedding/vivaldi.hpp"
#include "util/flags.hpp"

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 700);
  const auto samples = flags.get_uint<std::size_t>("edge-samples", 30000);
  const auto warmup = flags.get_uint<std::uint32_t>("warmup", 300);
  reject_unknown_flags(flags);

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  embedding::VivaldiParams vp;
  vp.seed = 3 ^ cfg.seed;
  embedding::VivaldiSystem vivaldi(space.measured, vp);
  vivaldi.run(warmup);

  const auto ratio_samples =
      core::collect_ratio_severity_samples(vivaldi, samples, 321 ^ cfg.seed);
  BinnedSeries series(0.0, 5.0, 0.1);
  for (const auto& s : ratio_samples) {
    if (!std::isnan(s.ratio)) series.add(s.ratio, s.severity);
  }

  BenchReport json(std::cout, "bench_fig19_prediction_ratio");
  json.meta(cfg);
  json.object()
      .field("section", std::string("config"))
      .field("hosts", space.measured.size())
      .field("edge_samples", samples)
      .field("warmup_s", warmup);
  emit_bins_json(json, "bins", series.bins(), 2);
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
