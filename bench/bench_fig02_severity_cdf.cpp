// Figure 2: cumulative distribution of TIV severity across the four
// datasets. Paper shape: most edges cause only slight violations, every
// curve has a long tail; severity tails differ per dataset.
//
// Records: samples (achieved-vs-requested sample accounting per dataset),
// cdf (fraction of edges at most each severity, per dataset).
#include <iostream>

#include "bench_common.hpp"
#include "core/severity.hpp"
#include "util/flags.hpp"

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 500);
  const auto samples = flags.get_uint<std::size_t>("edge-samples", 20000);
  reject_unknown_flags(flags);

  const std::vector<double> grid{0.0,  0.01, 0.02, 0.05, 0.1, 0.2,
                                 0.4,  0.6,  0.8,  1.0,  1.5, 2.0,
                                 3.0,  5.0,  8.0,  12.0, 20.0};

  BenchReport json(std::cout, "bench_fig02_severity_cdf");
  json.meta(cfg);

  for (const auto id : delayspace::all_datasets()) {
    // PlanetLab is already small; others are scaled by --hosts/--full.
    BenchConfig c = cfg;
    if (id == delayspace::DatasetId::kPlanetLab) c.hosts = 0;
    const auto space = make_space(id, c);
    const core::TivAnalyzer analyzer(space.measured);
    const auto sampled = analyzer.sampled_severities(samples, 7 ^ cfg.seed);
    std::vector<double> severities;
    severities.reserve(sampled.size());
    for (const auto& [edge, sev] : sampled) severities.push_back(sev);
    const std::string name = delayspace::dataset_name(id);
    json.object()
        .field("section", std::string("samples"))
        .field("dataset", name)
        .field("hosts", space.measured.size())
        .field("edges_requested", samples)
        .field("edges_achieved", sampled.size());
    const Cdf cdf(std::move(severities));
    for (const double x : grid) {
      json.object()
          .field("section", std::string("cdf"))
          .field("dataset", name)
          .field("severity", x, 3)
          .field("fraction", cdf.fraction_at_most(x), 4);
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
