// detour_routing: the constructive use of TIV awareness — a violated edge
// guarantees a faster relay path exists, and the TIV alert tells a node
// which edges are worth spending detour probes on, with no global
// knowledge.
//
//   ./detour_routing [--hosts=500] [--relays=8] [--threshold=0.6] [--seed=1]
#include <iostream>

#include "core/detour.hpp"
#include "delayspace/datasets.hpp"
#include "embedding/vivaldi.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int example_main(int argc, char** argv) {
  using namespace tiv;
  const Flags flags(argc, argv);
  const auto hosts = flags.get_uint<std::uint32_t>("hosts", 500);
  const auto relays = flags.get_uint<std::uint32_t>("relays", 8);
  const double threshold = flags.get_double("threshold", 0.6);
  const auto seed = flags.get_uint<std::uint64_t>("seed", 1);
  reject_unknown_flags(flags);

  auto params = delayspace::dataset_params(delayspace::DatasetId::kDs2, hosts);
  params.topology.seed ^= seed;
  params.hosts.seed ^= seed;
  const auto space = delayspace::generate_delay_space(params);

  embedding::VivaldiParams vp;
  vp.seed = 3 ^ seed;
  embedding::VivaldiSystem vivaldi(space.measured, vp);
  vivaldi.run(300);

  core::DetourParams dp;
  dp.alert_threshold = threshold;
  dp.relay_candidates = relays;
  const core::DetourEvaluation eval =
      core::evaluate_detour_routing(vivaldi, dp, 20000, 31 ^ seed);

  std::cout << "hosts: " << space.measured.size() << ", evaluated edges: "
            << eval.edges << ", alerted: " << eval.alerted_edges
            << ", detoured: " << eval.detoured_edges << "\n";

  print_section(std::cout, "End-to-end delay (ms) by routing scheme");
  Table table({"scheme", "mean", "median", "p90", "probes"});
  table.add_row({"direct", format_double(eval.direct_ms.mean, 1),
                 format_double(eval.direct_ms.median, 1),
                 format_double(eval.direct_ms.p90, 1), "0"});
  table.add_row({"tiv-aware detour", format_double(eval.achieved_ms.mean, 1),
                 format_double(eval.achieved_ms.median, 1),
                 format_double(eval.achieved_ms.p90, 1),
                 std::to_string(eval.probes_tiv_aware)});
  table.add_row({"random-relay detour",
                 format_double(eval.random_relay_ms.mean, 1),
                 format_double(eval.random_relay_ms.median, 1),
                 format_double(eval.random_relay_ms.p90, 1),
                 std::to_string(eval.probes_random)});
  table.add_row({"one-hop oracle", format_double(eval.oracle_ms.mean, 1),
                 format_double(eval.oracle_ms.median, 1),
                 format_double(eval.oracle_ms.p90, 1), "-"});
  table.print(std::cout);

  std::cout << "\nmean stretch over the one-hop oracle: direct="
            << format_double(eval.mean_stretch_direct, 3)
            << ", tiv-aware=" << format_double(eval.mean_stretch_achieved, 3)
            << "\n";
  std::cout << "probe cost: tiv-aware spends "
            << format_double(100.0 * static_cast<double>(eval.probes_tiv_aware) /
                                 static_cast<double>(
                                     std::max<std::uint64_t>(
                                         1, eval.probes_random)),
                             1)
            << "% of the random-relay budget\n";
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(example_main, argc, argv);
}
