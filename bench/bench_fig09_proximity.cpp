// Figure 9: CDFs of |TIV severity difference| between each sampled edge and
// (a) its nearest-pair edge, (b) a random-pair edge — per dataset. Paper
// shape: the nearest-pair curve is only slightly left of the random-pair
// curve, i.e. proximity does NOT predict severity.
//
// Records: samples (achieved-vs-requested sample accounting per dataset),
// cdf (nearest-pair and random-pair fractions at each x, per dataset).
#include <iostream>

#include "bench_common.hpp"
#include "core/proximity.hpp"
#include "util/flags.hpp"

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 500);
  const auto samples = flags.get_uint<std::size_t>("edge-samples", 10000);
  reject_unknown_flags(flags);

  BenchReport json(std::cout, "bench_fig09_proximity");
  json.meta(cfg);

  const std::vector<double> grid{0.0, 0.02, 0.05, 0.1, 0.2,
                                 0.3, 0.5,  0.75, 1.0, 1.5};
  for (const auto id : delayspace::all_datasets()) {
    BenchConfig c = cfg;
    if (id == delayspace::DatasetId::kPlanetLab) c.hosts = 0;
    const auto space = make_space(id, c);
    core::ProximityParams p;
    p.sample_edges = samples;
    // Same-AS hosts (the synthetic analogue of the same-LAN nodes the
    // measured datasets avoid) do not qualify as nearest neighbors.
    p.min_neighbor_delay_ms = 6.0;
    p.seed = 55 ^ cfg.seed;
    const auto result = core::proximity_experiment(space.measured, p);
    const std::string name = delayspace::dataset_name(id);
    json.object()
        .field("section", std::string("samples"))
        .field("dataset", name)
        .field("edges_requested", result.edges_requested)
        .field("edges_achieved", result.edges_achieved)
        .field_bool("sampler_exhausted", result.sampler_exhausted);
    const Cdf near(result.nearest_pair_diffs);
    const Cdf rand(result.random_pair_diffs);
    for (const double x : grid) {
      json.object()
          .field("section", std::string("cdf"))
          .field("dataset", name)
          .field("x", x, 3)
          .field("nearest_pair", near.fraction_at_most(x), 4)
          .field("random_pair", rand.fraction_at_most(x), 4);
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
