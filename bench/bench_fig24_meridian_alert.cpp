// Figure 24: TIV-aware Meridian under the paper's NORMAL setting (half the
// hosts are Meridian nodes; k=16, 11 rings, s=2, beta=0.5; ts=0.6, tl=2).
// Paper shape: the TIV alert mechanism (dual ring placement + predicted-
// delay query restart) improves the penalty CDF at ~6% extra on-demand
// probes; spending the same extra probes on a larger beta helps less.
//
// Records: config, penalty_cdf and probes (per scheme; the TIV-alert probes
// record carries the paper's overhead in "paper"), alert_quality.
#include <iostream>

#include "bench_common.hpp"
#include "core/alert.hpp"
#include "core/tiv_aware.hpp"
#include "embedding/vivaldi.hpp"
#include "neighbor/meridian_experiment.hpp"
#include "scenario/score.hpp"
#include "util/flags.hpp"

namespace {

// Grades the ts = 0.6 alert the TIV-aware variant consults through the
// shared scenario scorer, so this figure's quality numbers come from the
// same classification core as bench_scenario and figs 20/21.
void emit_alert_quality(tiv::bench::BenchReport& json,
                        const tiv::embedding::VivaldiSystem& vivaldi,
                        std::uint64_t seed) {
  const auto samples =
      tiv::core::collect_ratio_severity_samples(vivaldi, 20000, 321 ^ seed);
  std::vector<double> ratios;
  std::vector<double> severities;
  ratios.reserve(samples.size());
  severities.reserve(samples.size());
  for (const auto& s : samples) {
    ratios.push_back(s.ratio);
    severities.push_back(s.severity);
  }
  for (const double w : {0.01, 0.05}) {
    const auto q = tiv::scenario::score_ratio_alert(ratios, severities, w,
                                                    /*threshold=*/0.6);
    json.object()
        .field("section", std::string("alert_quality"))
        .field("worst_fraction", w, 2)
        .field("threshold", 0.6, 1)
        .field("precision", q.counts.precision(), 4)
        .field("recall", q.counts.recall(), 4)
        .field("f1", q.counts.f1(), 4)
        .field("alert_fraction", q.alert_fraction, 4);
  }
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 700);
  const auto runs = flags.get_uint<std::uint32_t>("runs", 3);
  reject_unknown_flags(flags);

  BenchReport json(std::cout, "bench_fig24_meridian_alert");
  json.meta(cfg);

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  const auto n = space.measured.size();

  // Independent embedding supplying prediction ratios (paper §5.3 assumes
  // e.g. Vivaldi runs alongside).
  embedding::VivaldiParams vp;
  vp.seed = 3 ^ cfg.seed;
  embedding::VivaldiSystem vivaldi(space.measured, vp);
  vivaldi.run(300);

  neighbor::MeridianExperimentParams p;
  p.num_meridian_nodes = n / 2;
  p.runs = runs;
  p.seed = 99 ^ cfg.seed;
  json.object()
      .field("section", std::string("config"))
      .field("hosts", n)
      .field("overlay_nodes", p.num_meridian_nodes)
      .field("runs", runs);

  const auto original = neighbor::run_meridian_experiment(space.measured, p);

  neighbor::MeridianExperimentParams p_alert = p;
  p_alert.meridian = core::tiv_aware_meridian_params(vivaldi, p.meridian);
  const auto alert = neighbor::run_meridian_experiment(space.measured, p_alert);

  // Overhead-matched baseline: raise beta until regular Meridian spends
  // about the same probes as the TIV-aware variant.
  const double overhead = alert.probes_per_query() /
                          std::max(1.0, original.probes_per_query());
  neighbor::MeridianExperimentParams p_beta = p;
  p_beta.meridian.beta = std::min(0.95, p.meridian.beta * overhead);
  const auto beta_up = neighbor::run_meridian_experiment(space.measured, p_beta);

  const char* names[] = {"Meridian-original", "Meridian-TIV-alert",
                         "Meridian-larger-beta"};
  const neighbor::MeridianExperimentResult* results[] = {&original, &alert,
                                                         &beta_up};
  for (int s = 0; s < 3; ++s) {
    for (const double x : log_grid(1.0, 10000.0)) {
      json.object()
          .field("section", std::string("penalty_cdf"))
          .field("scheme", std::string(names[s]))
          .field("penalty_pct", x, 0)
          .field("fraction_at_most", results[s]->penalties.fraction_at_most(x),
                 4);
    }
    auto probes = json.object();
    probes.field("section", std::string("probes"))
        .field("scheme", std::string(names[s]))
        .field("probes_per_query", results[s]->probes_per_query(), 1)
        .field("overhead_pct",
               100.0 * (results[s]->probes_per_query() /
                            original.probes_per_query() -
                        1.0),
               1)
        .field("fraction_optimal_found", results[s]->fraction_optimal_found,
               4)
        .field("restarted_queries", results[s]->restarted_queries);
    // Paper: the alert costs ~6% more probes and beats the equivalent beta
    // increase.
    if (results[s] == &alert) probes.field("paper", std::string("6"));
  }
  emit_alert_quality(json, vivaldi, cfg.seed);
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
