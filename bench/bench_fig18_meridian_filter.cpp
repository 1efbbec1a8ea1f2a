// Figure 18: the same global severity filter applied to Meridian ring
// construction. Paper shape: the filter actively DEGRADES Meridian — the
// removed edges were needed for query routing, leaving rings under-
// populated (up to 50% in the paper).
//
// Records: config (with the paper's ring-loss figure in "paper"), cdf
// (penalty CDF per scheme on a log grid), ring_occupancy (members per ring
// of one overlay, with and without the filter, and the loss in percent).
#include <iostream>

#include "bench_common.hpp"
#include "core/severity.hpp"
#include "core/severity_filter.hpp"
#include "neighbor/meridian_experiment.hpp"
#include "util/flags.hpp"

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 700);
  const double worst = flags.get_double("worst-fraction", 0.2);
  const auto runs = flags.get_uint<std::uint32_t>("runs", 3);
  reject_unknown_flags(flags);

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  const auto n = space.measured.size();
  const core::SeverityMatrix sev =
      core::TivAnalyzer(space.measured).all_severities();
  const core::SeverityFilter filter(space.measured, sev, worst);

  // Paper normal setting: half the hosts are Meridian nodes; k=16, 11
  // rings, s=2, beta=0.5.
  neighbor::MeridianExperimentParams p;
  p.num_meridian_nodes = n / 2;
  p.runs = runs;
  p.seed = 99 ^ cfg.seed;

  const auto original = neighbor::run_meridian_experiment(space.measured, p);
  p.meridian.edge_filter = [&filter](delayspace::HostId a,
                                     delayspace::HostId b) {
    return filter.filtered(a, b);
  };
  const auto with_filter =
      neighbor::run_meridian_experiment(space.measured, p);

  // The ring under-population mechanism, on one run's overlay.
  std::vector<delayspace::HostId> overlay_nodes;
  for (delayspace::HostId i = 0; i < n / 2; ++i) overlay_nodes.push_back(i);
  meridian::MeridianParams mp;
  const meridian::MeridianOverlay plain(space.measured, overlay_nodes, mp);
  mp.edge_filter = p.meridian.edge_filter;
  const meridian::MeridianOverlay pruned(space.measured, overlay_nodes, mp);
  const auto occ_a = plain.ring_occupancy();
  const auto occ_b = pruned.ring_occupancy();

  BenchReport json(std::cout, "bench_fig18_meridian_filter");
  json.meta(cfg);
  json.object()
      .field("section", std::string("config"))
      .field("hosts", n)
      .field("worst_fraction", worst, 3)
      .field("runs", runs)
      .field("paper", std::string("certain rings lose up to 50% of their "
                                  "members"));
  emit_cdf_grid_json(json, "cdf",
                     {"Meridian-original", "Meridian-TIV-severity-filter"},
                     {original.penalties, with_filter.penalties},
                     log_grid(1.0, 10000.0), 0);
  for (std::size_t r = 1; r < occ_a.size(); ++r) {
    if (occ_a[r] == 0) continue;
    const double loss = 100.0 *
                        (static_cast<double>(occ_a[r]) -
                         static_cast<double>(occ_b[r])) /
                        static_cast<double>(occ_a[r]);
    json.object()
        .field("section", std::string("ring_occupancy"))
        .field("ring", r)
        .field("members_original", occ_a[r])
        .field("members_filtered", occ_b[r])
        .field("loss_pct", loss, 1);
  }
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
