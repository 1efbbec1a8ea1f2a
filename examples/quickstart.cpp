// Quickstart: generate a synthetic Internet delay space, measure its TIV
// characteristics, embed it with Vivaldi, and use the TIV alert mechanism to
// flag the edges causing severe violations.
//
//   ./quickstart [--hosts=400] [--seed=1]
#include <algorithm>
#include <cmath>
#include <iostream>

#include "core/alert.hpp"
#include "core/severity.hpp"
#include "delayspace/clustering.hpp"
#include "delayspace/datasets.hpp"
#include "embedding/vivaldi.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int example_main(int argc, char** argv) {
  using namespace tiv;
  const Flags flags(argc, argv);
  const auto hosts = flags.get_uint<std::uint32_t>("hosts", 400);
  const auto seed = flags.get_uint<std::uint64_t>("seed", 1);
  reject_unknown_flags(flags);

  // 1. Generate a DS^2-like delay space: AS topology + valley-free policy
  //    routing + host attachment.
  auto params = delayspace::dataset_params(delayspace::DatasetId::kDs2, hosts);
  params.topology.seed ^= seed;
  params.hosts.seed ^= seed;
  const delayspace::DelaySpace space = delayspace::generate_delay_space(params);
  const auto& matrix = space.measured;
  std::cout << "Generated " << matrix.size() << "-host delay space ("
            << matrix.measured_pair_count() << " measured pairs)\n";

  // 2. How bad are the triangle inequality violations?
  const core::TivAnalyzer analyzer(matrix);
  std::cout << "Fraction of violating triangles: "
            << format_double(analyzer.violating_triangle_fraction(200000), 3)
            << "\n";
  const auto samples = analyzer.sampled_severities(2000);
  std::vector<double> sev;
  sev.reserve(samples.size());
  for (const auto& s : samples) sev.push_back(s.second);
  const Summary sum = summarize(sev);
  std::cout << "Edge TIV severity: median=" << format_double(sum.median, 3)
            << " p90=" << format_double(sum.p90, 3)
            << " max=" << format_double(sum.max, 3) << "\n";

  // 3. Embed with Vivaldi (5-D, 32 neighbors) and check the embedding error.
  embedding::VivaldiParams vp;
  vp.seed = seed;
  embedding::VivaldiSystem vivaldi(matrix, vp);
  vivaldi.run(100);
  const auto err = vivaldi.snapshot_error(20000).absolute_error();
  std::cout << "Vivaldi absolute error after 100 s: median="
            << format_double(err.median, 1)
            << " ms, p90=" << format_double(err.p90, 1) << " ms\n";

  // 4. TIV alert: flag edges whose prediction ratio says "shrunk in the
  //    embedding" and verify the flagged edges really are the severe ones.
  const core::TivAlert alert(vivaldi, /*threshold=*/0.6);
  const auto ratio_samples = core::collect_ratio_severity_samples(vivaldi, 2000);
  const auto metrics = core::evaluate_alert(ratio_samples, /*worst=*/0.05,
                                            alert.threshold());
  std::cout << "TIV alert (threshold 0.6) on worst-5% severity edges: "
            << "accuracy=" << format_double(metrics.accuracy, 2)
            << " recall=" << format_double(metrics.recall, 2)
            << " (alerts on " << format_double(100 * metrics.alert_fraction, 1)
            << "% of edges)\n";

  // 5. Show the three most severe flagged edges.
  Table table({"edge", "measured_ms", "predicted_ms", "ratio", "severity"});
  std::vector<core::EdgeRatioSample> flagged;
  for (const auto& s : ratio_samples) {
    if (!std::isnan(s.ratio) && s.ratio < alert.threshold()) {
      flagged.push_back(s);
    }
  }
  std::sort(flagged.begin(), flagged.end(),
            [](const auto& a, const auto& b) { return a.severity > b.severity; });
  for (std::size_t i = 0; i < std::min<std::size_t>(3, flagged.size()); ++i) {
    const auto& s = flagged[i];
    table.add_row({std::to_string(s.a) + "-" + std::to_string(s.b),
                   format_double(matrix.at(s.a, s.b), 1),
                   format_double(vivaldi.predicted(s.a, s.b), 1),
                   format_double(s.ratio, 2), format_double(s.severity, 3)});
  }
  std::cout << "\nMost severe alerted edges:\n";
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(example_main, argc, argv);
}
