// Figure 10: Vivaldi signed-error traces on the 3-node TIV network
// (AB = 5 ms, BC = 5 ms, CA = 100 ms) over 100 simulated seconds. Paper
// shape: no equilibrium exists; the per-edge errors oscillate endlessly
// with large magnitude.
//
// Records: trace (one per simulated second: signed error of each edge),
// summary (the never-converges statistics of |err C-A| over the last half).
#include <iostream>

#include "bench_common.hpp"
#include "embedding/trackers.hpp"
#include "embedding/vivaldi.hpp"
#include "util/flags.hpp"

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 0);
  const auto seconds = flags.get_uint<std::uint32_t>("seconds", 100);
  reject_unknown_flags(flags);

  delayspace::DelayMatrix m(3);
  m.set(0, 1, 5.0f);    // A-B
  m.set(1, 2, 5.0f);    // B-C
  m.set(0, 2, 100.0f);  // C-A (violating edge)

  embedding::VivaldiParams vp;
  vp.dimension = 5;
  vp.seed = 3 ^ cfg.seed;
  embedding::VivaldiSystem sys(m, vp);
  embedding::EdgeErrorTrace trace({{0, 1}, {1, 2}, {0, 2}});
  for (std::uint32_t t = 0; t < seconds; ++t) {
    sys.tick();
    trace.observe(sys);
  }

  // Oscillation summary: the system never settles.
  Summary late;
  {
    std::vector<double> tail;
    for (std::size_t t = seconds / 2; t < seconds; ++t) {
      tail.push_back(std::abs(trace.trace(2)[t]));
    }
    late = summarize(tail);
  }

  BenchReport json(std::cout, "bench_fig10_threenode_trace");
  json.meta(cfg);
  for (std::uint32_t t = 0; t < seconds; ++t) {
    json.object()
        .field("section", std::string("trace"))
        .field("t", t + 1)
        .field("err_ab", trace.trace(0)[t], 3)
        .field("err_bc", trace.trace(1)[t], 3)
        .field("err_ca", trace.trace(2)[t], 3);
  }
  json.object()
      .field("section", std::string("summary"))
      .field("tail_seconds", seconds / 2)
      .field("abs_err_ca_median", late.median, 3)
      .field("abs_err_ca_min", late.min, 3)
      .field("abs_err_ca_max", late.max, 3);
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
