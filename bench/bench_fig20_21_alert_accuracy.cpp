// Figures 20-21: accuracy and recall of the TIV alert mechanism vs alert
// threshold, for the worst {1, 5, 10, 20}% most severe edges, DS^2. Paper
// shape: tight thresholds give very high accuracy but low recall; relaxing
// the threshold trades accuracy for recall. At threshold 0.6 the paper
// alerts ~4% of edges with 70% recall of the worst 1%.
//
// Records: alert_accuracy (one per threshold and worst fraction: accuracy
// = Fig. 20, recall = Fig. 21, F1, alerted-edge fraction; the paper's two
// reference points carry "paper").
#include <iostream>

#include "bench_common.hpp"
#include "core/alert.hpp"
#include "embedding/vivaldi.hpp"
#include "util/flags.hpp"

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 700);
  const auto samples = flags.get_uint<std::size_t>("edge-samples", 30000);
  const auto warmup = flags.get_uint<std::uint32_t>("warmup", 300);
  reject_unknown_flags(flags);

  BenchReport json(std::cout, "bench_fig20_21_alert_accuracy");
  json.meta(cfg);

  const auto space = make_space(delayspace::DatasetId::kDs2, cfg);
  embedding::VivaldiParams vp;
  vp.seed = 3 ^ cfg.seed;
  embedding::VivaldiSystem vivaldi(space.measured, vp);
  vivaldi.run(warmup);
  const auto ratio_samples =
      core::collect_ratio_severity_samples(vivaldi, samples, 321 ^ cfg.seed);

  const std::vector<double> worst_fractions{0.01, 0.05, 0.10, 0.20};
  const std::vector<double> thresholds{0.1, 0.2, 0.3, 0.4, 0.5,
                                       0.6, 0.7, 0.8, 0.9, 1.0};
  // One record per (threshold, worst-fraction) cell: both figures' series
  // (accuracy = Fig. 20, recall = Fig. 21) plus the alerted-edge fraction
  // and F1, all computed by the shared scenario/score.* classification
  // core (evaluate_alert delegates to scenario::score_ratio_alert).
  for (double t : thresholds) {
    for (double w : worst_fractions) {
      const auto m = core::evaluate_alert(ratio_samples, w, t);
      auto record = json.object();
      record.field("section", std::string("alert_accuracy"))
          .field("threshold", t, 1)
          .field("worst_fraction", w, 2)
          .field("accuracy", m.accuracy, 4)
          .field("recall", m.recall, 4)
          .field("f1", m.f1, 4)
          .field("alert_fraction", m.alert_fraction, 4);
      // The paper's reference points, both on the worst-1% series.
      if (w == 0.01 && t == 0.1) {
        record.field("paper", std::string("accuracy 0.92"));
      } else if (w == 0.01 && t == 0.6) {
        record.field("paper", std::string("alert_fraction ~0.04, recall 0.70"));
      }
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
