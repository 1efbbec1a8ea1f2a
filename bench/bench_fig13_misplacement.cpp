// Figure 13: percentage of Meridian ring members misplaced by TIVs vs pair
// delay, for beta in {0.1, 0.5, 0.9}, DS^2. Paper shape: larger beta
// tolerates more (lower curves); at beta = 0.5 placement errors run
// 10-30% below 400 ms and grow sharply beyond.
//
// Records: bin (one per beta and delay bin: misplaced-fraction stats).
#include <iostream>

#include "bench_common.hpp"
#include "meridian/misplacement.hpp"
#include "util/flags.hpp"

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 600);
  const auto sample_pairs = flags.get_uint<std::size_t>("sample-pairs", 60000);
  reject_unknown_flags(flags);

  BenchReport json(std::cout, "bench_fig13_misplacement");
  json.meta(cfg);

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  for (const double beta : {0.1, 0.5, 0.9}) {
    meridian::MisplacementParams p;
    p.beta = beta;
    p.bin_width_ms = 25.0;
    p.sample_pairs = sample_pairs;
    p.seed = 13 ^ cfg.seed;
    const auto bins = meridian::misplacement_series(space.measured, p);
    for (const Bin& b : bins) {
      json.object()
          .field("section", std::string("bin"))
          .field("beta", beta, 1)
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
