// Ablation (DESIGN.md §6): policy-routing detours vs i.i.d. multiplicative
// inflation as the TIV-generating mechanism. Holding the topology and host
// attachment comparable, the i.i.d. variant produces (a) a severity-vs-
// length relation that is far smoother and (b) no cluster structure in the
// violations — the irregularity the paper documents is a *structural*
// property of routing, which is why the substrate matters.
//
// Records: route_class (the policy substrate's route-class mix), bin
// (severity vs delay per variant, 25 ms bins), summary (per variant:
// severity-vs-length irregularity, violating triangle fraction, cross/
// within cluster severity ratio).
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/severity.hpp"
#include "delayspace/clustering.hpp"
#include "delayspace/generate.hpp"
#include "routing/policy_routing.hpp"
#include "topology/generator.hpp"
#include "util/flags.hpp"

namespace {

/// Coefficient of variation of bin medians — a simple irregularity score
/// for the severity-vs-length curve (higher = more irregular).
double median_irregularity(const std::vector<tiv::Bin>& bins) {
  std::vector<double> medians;
  for (const auto& b : bins) {
    if (b.count >= 20) medians.push_back(b.median);
  }
  if (medians.size() < 3) return 0.0;
  // Mean absolute difference between successive bins, normalized by the
  // overall mean: captures humps, not just spread.
  double mean = 0.0;
  for (double v : medians) mean += v;
  mean /= static_cast<double>(medians.size());
  if (mean <= 0) return 0.0;
  double jump = 0.0;
  for (std::size_t i = 1; i < medians.size(); ++i) {
    jump += std::abs(medians[i] - medians[i - 1]);
  }
  return jump / (static_cast<double>(medians.size() - 1) * mean);
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace tiv;
  using namespace tiv::bench;
  const Flags flags(argc, argv);
  const BenchConfig cfg = parse_config(flags, 500);
  const auto samples = flags.get_uint<std::size_t>("edge-samples", 15000);
  reject_unknown_flags(flags);

  auto params = delayspace::dataset_params(delayspace::DatasetId::kDs2,
                                           cfg.hosts != 0 ? cfg.hosts : 500);
  params.topology.seed ^= cfg.seed;
  params.hosts.seed ^= cfg.seed;

  // Build the routing substrate explicitly (generate_delay_space would do
  // the same internally) so the route-class mix of the ablated topology is
  // reportable: the class counts are the structural fingerprint the i.i.d.
  // variant erases.
  const auto graph = topology::generate_topology(params.topology);
  const routing::PolicyRoutingMatrix policy(graph);
  const auto policy_space =
      delayspace::generate_hosts_over(graph, policy, params.hosts);
  const auto iid_space = delayspace::generate_iid_inflation(params);

  BenchReport json(std::cout, "bench_ablation_generator");
  json.meta(cfg);
  const routing::RouteClassCounts& classes = policy.class_counts();
  const char* class_names[] = {"customer", "peer", "provider"};
  const routing::RouteClass class_ids[] = {routing::RouteClass::kCustomer,
                                           routing::RouteClass::kPeer,
                                           routing::RouteClass::kProvider};
  for (int c = 0; c < 3; ++c) {
    json.object()
        .field("section", std::string("route_class"))
        .field("class", std::string(class_names[c]))
        .field("routes", classes.of(class_ids[c]))
        .field("fraction", policy.class_fraction(class_ids[c]), 4);
  }
  json.object()
      .field("section", std::string("route_class"))
      .field("class", std::string("unreachable"))
      .field("routes", classes.unreachable);

  const std::string names[] = {"policy-routing", "iid-inflation"};
  const delayspace::DelaySpace* spaces[] = {&policy_space, &iid_space};
  for (int v = 0; v < 2; ++v) {
    const auto& space = *spaces[v];
    const core::TivAnalyzer analyzer(space.measured);
    const auto sampled = analyzer.sampled_severities(samples, 11 ^ cfg.seed);
    BinnedSeries series(0.0, 1000.0, 25.0);
    for (const auto& [edge, sev] : sampled) {
      series.add(space.measured.at(edge.first, edge.second), sev);
    }
    for (const Bin& b : series.bins()) {
      json.object()
          .field("section", std::string("bin"))
          .field("variant", names[v])
          .field("delay_ms", b.x_center, 1)
          .field("p10", b.p10, 4)
          .field("median", b.median, 4)
          .field("p90", b.p90, 4)
          .field("mean", b.mean, 4)
          .field("count", b.count);
    }

    const auto clustering =
        delayspace::cluster_delay_space(space.measured, {});
    double within = 0.0;
    double cross = 0.0;
    std::size_t nw = 0;
    std::size_t nc = 0;
    for (const auto& [edge, sev] : sampled) {
      if (clustering.same_cluster(edge.first, edge.second)) {
        within += sev;
        ++nw;
      } else {
        cross += sev;
        ++nc;
      }
    }
    const double cross_over_within = (nw == 0 || nc == 0 || within == 0.0)
                                         ? 0.0
                                         : (cross / nc) / (within / nw);
    json.object()
        .field("section", std::string("summary"))
        .field("variant", names[v])
        .field("irregularity", median_irregularity(series.bins()), 4)
        .field("triangle_fraction",
               analyzer.violating_triangle_fraction(300000), 4)
        .field("cross_over_within", cross_over_within, 3);
  }
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
