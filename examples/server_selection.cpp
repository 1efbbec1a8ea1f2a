// server_selection: the paper's motivating scenario — clients picking the
// nearest of a set of replica servers — comparing four selection schemes:
//
//   random        pick any server (no network awareness)
//   vivaldi       rank servers by Vivaldi coordinates
//   meridian      recursive online probing
//   tiv-meridian  Meridian with the TIV alert mechanism (§5.3)
//
//   ./server_selection [--hosts=600] [--servers=30] [--seed=1]
#include <algorithm>
#include <cmath>
#include <limits>
#include <iostream>

#include "core/tiv_aware.hpp"
#include "delayspace/datasets.hpp"
#include "embedding/vivaldi.hpp"
#include "meridian/meridian.hpp"
#include "neighbor/selection.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

int example_main(int argc, char** argv) {
  using namespace tiv;
  using delayspace::HostId;
  const Flags flags(argc, argv);
  const auto hosts = flags.get_uint<std::uint32_t>("hosts", 600);
  const auto servers = flags.get_uint<std::uint32_t>("servers", 30);
  const auto seed = flags.get_uint<std::uint64_t>("seed", 1);
  reject_unknown_flags(flags);

  auto params = delayspace::dataset_params(delayspace::DatasetId::kDs2, hosts);
  params.topology.seed ^= seed;
  params.hosts.seed ^= seed;
  const auto space = delayspace::generate_delay_space(params);
  const auto& m = space.measured;
  std::cout << "delay space: " << m.size() << " hosts; " << servers
            << " replica servers\n";

  // Shared Vivaldi embedding (runs as a background service).
  embedding::VivaldiParams vp;
  vp.seed = 3 ^ seed;
  embedding::VivaldiSystem vivaldi(m, vp);
  vivaldi.run(200);

  // The replica servers double as the Meridian overlay.
  Rng rng(seed);
  const auto picks = rng.sample_without_replacement(m.size(), servers);
  std::vector<HostId> server_set(picks.begin(), picks.end());
  std::sort(server_set.begin(), server_set.end());

  meridian::MeridianParams mp;  // paper's normal parameters
  const meridian::MeridianOverlay meridian_plain(m, server_set, mp);
  const meridian::MeridianOverlay meridian_tiv(
      m, server_set, core::tiv_aware_meridian_params(vivaldi, mp));

  struct Scheme {
    std::string name;
    std::vector<double> penalties;
    std::uint64_t probes = 0;
  };
  std::vector<Scheme> schemes{{"random", {}, 0},
                              {"vivaldi", {}, 0},
                              {"meridian", {}, 0},
                              {"tiv-meridian", {}, 0}};

  Rng client_rng = rng.split();
  for (HostId client = 0; client < m.size(); ++client) {
    if (std::binary_search(server_set.begin(), server_set.end(), client)) {
      continue;
    }
    auto penalty = [&](HostId chosen) {
      return neighbor::percentage_penalty(m, client, chosen, server_set);
    };
    // random
    schemes[0].penalties.push_back(
        penalty(server_set[client_rng.uniform_index(server_set.size())]));
    // vivaldi: rank by coordinates, no probes
    HostId best = server_set.front();
    double best_pred = std::numeric_limits<double>::infinity();
    for (HostId s : server_set) {
      const double p = vivaldi.predicted(client, s);
      if (p < best_pred) {
        best_pred = p;
        best = s;
      }
    }
    schemes[1].penalties.push_back(penalty(best));
    // meridian variants
    const HostId start = server_set[client_rng.uniform_index(server_set.size())];
    const auto q1 = meridian_plain.find_closest(client, start);
    schemes[2].penalties.push_back(penalty(q1.chosen));
    schemes[2].probes += q1.probes;
    const auto q2 = meridian_tiv.find_closest(client, start);
    schemes[3].penalties.push_back(penalty(q2.chosen));
    schemes[3].probes += q2.probes;
  }

  print_section(std::cout, "Server selection penalty (percent over optimal)");
  Table table({"scheme", "median", "p90", "p99", "perfect %", "probes/query"});
  for (auto& s : schemes) {
    std::vector<double> clean;
    std::size_t perfect = 0;
    for (double p : s.penalties) {
      if (std::isnan(p)) continue;
      clean.push_back(p);
      perfect += p <= 1e-9;
    }
    const Summary sum = summarize(clean);
    const double p99 = percentile(clean, 99);
    table.add_row(
        {s.name, format_double(sum.median, 1), format_double(sum.p90, 1),
         format_double(p99, 1),
         format_double(100.0 * static_cast<double>(perfect) /
                           static_cast<double>(clean.size()),
                       1),
         format_double(static_cast<double>(s.probes) /
                           static_cast<double>(clean.size()),
                       1)});
  }
  table.print(std::cout);
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(example_main, argc, argv);
}
