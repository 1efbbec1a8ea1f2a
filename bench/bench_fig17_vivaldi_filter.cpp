// Figure 17: the naive strawman — remove the globally worst 20% of edges by
// TIV severity from Vivaldi's neighbor selection. Paper shape: only a
// marginal improvement; TIV is too widespread for outlier removal to fix
// the embedding.
//
// Records: config (also the filtered-edge count and severity cutoff), cdf
// (penalty CDF per scheme on a log grid), quantiles.
#include <iostream>

#include "bench_common.hpp"
#include "core/severity.hpp"
#include "core/severity_filter.hpp"
#include "embedding/vivaldi.hpp"
#include "neighbor/selection.hpp"
#include "util/flags.hpp"

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 700);
  const double worst = flags.get_double("worst-fraction", 0.2);
  const auto runs = flags.get_uint<std::uint32_t>("runs", 5);
  reject_unknown_flags(flags);

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  const auto n = space.measured.size();
  const core::SeverityMatrix sev =
      core::TivAnalyzer(space.measured).all_severities();
  const core::SeverityFilter filter(space.measured, sev, worst);

  embedding::VivaldiParams vp;
  vp.seed = 3 ^ cfg.seed;
  embedding::VivaldiSystem original(space.measured, vp);
  original.run(100);

  embedding::VivaldiSystem filtered(space.measured, vp);
  core::apply_filter_to_vivaldi(filtered, filter, 31 ^ cfg.seed);
  filtered.run(100);

  neighbor::SelectionParams sp;
  sp.num_candidates = std::max<std::uint32_t>(20, n / 20);
  sp.runs = runs;
  sp.seed = 77 ^ cfg.seed;
  const neighbor::SelectionExperiment exp(space.measured, sp);

  const Cdf cdf_orig =
      exp.run([&](delayspace::HostId a, delayspace::HostId b) {
        return original.predicted(a, b);
      });
  const Cdf cdf_filt =
      exp.run([&](delayspace::HostId a, delayspace::HostId b) {
        return filtered.predicted(a, b);
      });

  BenchReport json(std::cout, "bench_fig17_vivaldi_filter");
  json.meta(cfg);
  json.object()
      .field("section", std::string("config"))
      .field("hosts", n)
      .field("worst_fraction", worst, 3)
      .field("filtered_edges", filter.filtered_count())
      .field("cutoff_severity", filter.cutoff_severity(), 4)
      .field("runs", runs);
  const std::vector<std::string> names{"Vivaldi-original",
                                       "Vivaldi-TIV-severity-filter"};
  const std::vector<Cdf> cdfs{cdf_orig, cdf_filt};
  emit_cdf_grid_json(json, "cdf", names, cdfs, log_grid(1.0, 10000.0), 0);
  emit_cdf_quantiles_json(json, "quantiles", names, cdfs);
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
