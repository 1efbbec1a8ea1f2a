// Ablation (DESIGN.md §6): Vivaldi dimensionality sweep (2-9 D). The paper
// asserts TIV is incompatible with ANY metric space (§3.1); if the
// embedding error and the neighbor-selection penalty were artifacts of too
// few dimensions, they would vanish as dimensions grow. They do not.
// Expected: the error plateaus (the TIV residual is not a dimensionality
// artifact) and the alert works in every dimension.
//
// Records: config, dimension (one per Vivaldi dimension: absolute error,
// neighbor-selection penalty, alert accuracy on the worst 5% at threshold
// 0.5), height (the 5-D run with and without height vectors).
#include <iostream>

#include "bench_common.hpp"
#include "core/alert.hpp"
#include "embedding/vivaldi.hpp"
#include "neighbor/selection.hpp"
#include "util/flags.hpp"

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 500);
  const auto runs = flags.get_uint<std::uint32_t>("runs", 3);
  reject_unknown_flags(flags);

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  const auto n = space.measured.size();
  neighbor::SelectionParams sp;
  sp.num_candidates = std::max<std::uint32_t>(20, n / 20);
  sp.runs = runs;
  sp.seed = 77 ^ cfg.seed;
  const neighbor::SelectionExperiment exp(space.measured, sp);

  BenchReport json(std::cout, "bench_ablation_dims");
  json.meta(cfg);
  json.object()
      .field("section", std::string("config"))
      .field("hosts", n)
      .field("candidates", sp.num_candidates)
      .field("runs", runs);
  for (std::uint32_t dim : {2u, 3u, 5u, 7u, 9u}) {
    embedding::VivaldiParams vp;
    vp.dimension = dim;
    vp.seed = 3 ^ cfg.seed;
    embedding::VivaldiSystem sys(space.measured, vp);
    sys.run(300);
    const auto err = sys.snapshot_error(100000).absolute_error();
    const Cdf penalties =
        exp.run([&sys](delayspace::HostId a, delayspace::HostId b) {
          return sys.predicted(a, b);
        });
    const auto ratio_samples =
        core::collect_ratio_severity_samples(sys, 10000, 321 ^ cfg.seed);
    const auto alert = core::evaluate_alert(ratio_samples, 0.05, 0.5);
    json.object()
        .field("section", std::string("dimension"))
        .field("dim", dim)
        .field("median_abs_error_ms", err.median, 2)
        .field("p90_abs_error_ms", err.p90, 2)
        .field("median_penalty_pct", penalties.quantile(0.5), 2)
        .field("p90_penalty_pct", penalties.quantile(0.9), 2)
        .field("worst_fraction", 0.05, 2)
        .field("threshold", 0.5, 1)
        .field("alert_accuracy", alert.accuracy, 4);
  }

  // Height-vector variant (Dabek §2.6) at the paper's 5-D setting: heights
  // absorb satellite access constants but cannot remove routing-induced
  // TIVs either.
  for (const bool use_height : {false, true}) {
    embedding::VivaldiParams vp;
    vp.dimension = 5;
    vp.seed = 3 ^ cfg.seed;
    vp.use_height = use_height;
    embedding::VivaldiSystem sys(space.measured, vp);
    sys.run(300);
    const auto err = sys.snapshot_error(100000).absolute_error();
    const Cdf penalties =
        exp.run([&sys](delayspace::HostId a, delayspace::HostId b) {
          return sys.predicted(a, b);
        });
    json.object()
        .field("section", std::string("height"))
        .field("variant", std::string(use_height ? "with_heights"
                                                 : "plain_euclidean"))
        .field("median_abs_error_ms", err.median, 2)
        .field("p90_abs_error_ms", err.p90, 2)
        .field("median_penalty_pct", penalties.quantile(0.5), 2);
  }
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
