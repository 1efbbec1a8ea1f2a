// Figure 15: neighbor-selection penalty CDF of IDES (matrix-factorization
// coordinates) vs original Vivaldi, DS^2. Paper shape: IDES — despite being
// able to represent TIVs — is WORSE than Vivaldi at neighbor selection.
//
// Records: config, cdf (penalty CDF per scheme on a log grid), quantiles
// (the same CDFs read at fixed quantiles).
#include <iostream>

#include "bench_common.hpp"
#include "embedding/vivaldi.hpp"
#include "matfact/ides.hpp"
#include "neighbor/selection.hpp"
#include "util/flags.hpp"

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 800);
  const auto candidates = flags.get_uint<std::uint32_t>("candidates", 0);
  const auto runs = flags.get_uint<std::uint32_t>("runs", 5);
  reject_unknown_flags(flags);

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  const auto n = space.measured.size();

  embedding::VivaldiParams vp;
  vp.seed = 3 ^ cfg.seed;
  embedding::VivaldiSystem vivaldi(space.measured, vp);
  vivaldi.run(100);

  matfact::IdesParams ip;
  ip.seed = 23 ^ cfg.seed;
  const matfact::Ides ides(space.measured, ip);

  neighbor::SelectionParams sp;
  sp.num_candidates =
      candidates != 0 ? candidates : std::max<std::uint32_t>(20, n / 20);
  sp.runs = runs;
  sp.seed = 77 ^ cfg.seed;
  const neighbor::SelectionExperiment exp(space.measured, sp);

  const Cdf cdf_ides = exp.run([&ides](delayspace::HostId a,
                                       delayspace::HostId b) {
    return ides.predicted(a, b);
  });
  const Cdf cdf_vivaldi = exp.run(
      [&vivaldi](delayspace::HostId a, delayspace::HostId b) {
        return vivaldi.predicted(a, b);
      });

  BenchReport json(std::cout, "bench_fig15_ides");
  json.meta(cfg);
  json.object()
      .field("section", std::string("config"))
      .field("hosts", n)
      .field("candidates", sp.num_candidates)
      .field("runs", runs);
  const std::vector<std::string> names{"IDES", "Vivaldi-original"};
  const std::vector<Cdf> cdfs{cdf_ides, cdf_vivaldi};
  emit_cdf_grid_json(json, "cdf", names, cdfs, log_grid(1.0, 10000.0), 0);
  emit_cdf_quantiles_json(json, "quantiles", names, cdfs);
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
