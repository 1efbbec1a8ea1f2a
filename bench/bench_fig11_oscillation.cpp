// Figure 11: distribution of per-edge oscillation ranges
// (max - min predicted delay over a 500 s window) vs edge delay, DS^2.
// Paper shape: predictions oscillate over large ranges — tens to hundreds
// of ms — even for very short edges. Also reports the in-text DS^2 numbers
// (median abs error ~20 ms, 90th ~140 ms; movement 1.61 / 6.18 ms per
// step).
//
// Records: bin (oscillation range per delay bin), intext (the four in-text
// statistics, with the paper's values in "paper").
#include <iostream>

#include "bench_common.hpp"
#include "embedding/trackers.hpp"
#include "embedding/vivaldi.hpp"
#include "util/flags.hpp"

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 800);
  const auto warmup = flags.get_uint<std::uint32_t>("warmup", 100);
  const auto window = flags.get_uint<std::uint32_t>("window", 500);
  const auto tracked = flags.get_uint<std::size_t>("tracked-edges", 100000);
  reject_unknown_flags(flags);

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  embedding::VivaldiParams vp;
  vp.seed = 5 ^ cfg.seed;
  embedding::VivaldiSystem sys(space.measured, vp);
  sys.run(warmup);

  embedding::OscillationTracker tracker(space.measured, tracked);
  embedding::MovementRecorder movement;
  for (std::uint32_t t = 0; t < window; ++t) {
    movement.record(sys.tick());
    tracker.observe(sys);
  }

  BinnedSeries series(0.0, 1000.0, 10.0);
  for (const auto& r : tracker.ranges(space.measured)) {
    series.add(r.measured_ms, r.range_ms);
  }
  const Summary err = sys.snapshot_error(200000).absolute_error();
  const Summary speed = movement.speed_summary();

  BenchReport json(std::cout, "bench_fig11_oscillation");
  json.meta(cfg);
  for (const Bin& b : series.bins()) {
    json.object()
        .field("section", std::string("bin"))
        .field("delay_ms", b.x_center, 1)
        .field("p10", b.p10, 3)
        .field("median", b.median, 3)
        .field("p90", b.p90, 3)
        .field("mean", b.mean, 3)
        .field("count", b.count);
  }
  json.object()
      .field("section", std::string("intext"))
      .field("median_abs_error_ms", err.median, 2)
      .field("p90_abs_error_ms", err.p90, 2)
      .field("median_movement_ms", speed.median, 3)
      .field("p90_movement_ms", speed.p90, 3)
      .field("paper", std::string("median_abs_error_ms=20 "
                                  "p90_abs_error_ms=140 "
                                  "median_movement_ms=1.61 "
                                  "p90_movement_ms=6.18"));
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
