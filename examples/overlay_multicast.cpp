// overlay_multicast: the paper's other motivating scenario — a tree-based
// overlay multicast where each joining node picks a nearby parent. Three
// parent-selection policies are compared by total tree cost and root-to-
// leaf stretch:
//
//   random           pick any existing member
//   vivaldi          nearest existing member by coordinates
//   vivaldi+alert    like vivaldi, but candidates whose edge to the joiner
//                    raises a TIV alert are measured before use, and the
//                    joiner falls back to the next candidate when the
//                    measurement is much worse than predicted
//
//   ./overlay_multicast [--hosts=500] [--fanout=8] [--seed=1]
#include <algorithm>
#include <iostream>

#include "core/alert.hpp"
#include "delayspace/datasets.hpp"
#include "embedding/vivaldi.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace {

using tiv::delayspace::HostId;

struct Tree {
  std::vector<int> parent;          // -1 for the root
  std::vector<std::uint32_t> kids;  // fan-out counter
  double edge_cost = 0.0;
  std::uint64_t probes = 0;
};

}  // namespace

int example_main(int argc, char** argv) {
  using namespace tiv;
  const Flags flags(argc, argv);
  const auto hosts = flags.get_uint<std::uint32_t>("hosts", 500);
  const auto fanout = flags.get_uint<std::uint32_t>("fanout", 8);
  const auto seed = flags.get_uint<std::uint64_t>("seed", 1);
  reject_unknown_flags(flags);

  auto params = delayspace::dataset_params(delayspace::DatasetId::kDs2, hosts);
  params.topology.seed ^= seed;
  params.hosts.seed ^= seed;
  const auto space = delayspace::generate_delay_space(params);
  const auto& m = space.measured;

  embedding::VivaldiParams vp;
  vp.seed = 3 ^ seed;
  embedding::VivaldiSystem vivaldi(m, vp);
  vivaldi.run(200);
  const core::TivAlert alert(vivaldi, 0.6);

  // Join order is the same for all policies.
  std::vector<HostId> order(m.size());
  for (HostId i = 0; i < m.size(); ++i) order[i] = i;
  Rng rng(seed ^ 0xbeef);
  rng.shuffle(order);

  enum class Policy { kRandom, kVivaldi, kVivaldiAlert };
  auto build = [&](Policy policy) {
    Tree tree;
    tree.parent.assign(m.size(), -1);
    tree.kids.assign(m.size(), 0);
    std::vector<HostId> members{order[0]};
    Rng pick_rng(seed ^ 0xfeed);
    for (std::size_t k = 1; k < order.size(); ++k) {
      const HostId join = order[k];
      // Eligible parents: members with spare fan-out and a measured edge.
      std::vector<HostId> eligible;
      for (HostId p : members) {
        if (tree.kids[p] < fanout && m.has(join, p)) eligible.push_back(p);
      }
      if (eligible.empty()) eligible = members;
      HostId parent = eligible.front();
      if (policy == Policy::kRandom) {
        parent = eligible[pick_rng.uniform_index(eligible.size())];
      } else {
        // Rank by predicted delay.
        std::sort(eligible.begin(), eligible.end(), [&](HostId a, HostId b) {
          return vivaldi.predicted(join, a) < vivaldi.predicted(join, b);
        });
        parent = eligible.front();
        if (policy == Policy::kVivaldiAlert) {
          // Measure alerted candidates before committing: a shrunk edge's
          // true delay is probably much larger than predicted.
          for (HostId cand : eligible) {
            if (!alert.alerted(join, cand)) {
              parent = cand;
              break;
            }
            ++tree.probes;  // on-demand verification probe
            if (m.at(join, cand) <
                2.0 * vivaldi.predicted(join, cand)) {
              parent = cand;  // measurement says the edge is fine
              break;
            }
          }
        }
      }
      tree.parent[join] = static_cast<int>(parent);
      ++tree.kids[parent];
      tree.edge_cost += m.at(join, parent);
      members.push_back(join);
    }
    return tree;
  };

  auto evaluate = [&](const char* name, const Tree& tree, Table& table) {
    // Root-to-node latency via tree edges vs direct delay (stretch).
    const HostId root = order[0];
    std::vector<double> depth(m.size(), 0.0);
    // Children were always attached after their parent, so a pass in join
    // order resolves depths.
    for (const HostId h : order) {
      if (tree.parent[h] >= 0) {
        const auto p = static_cast<HostId>(tree.parent[h]);
        depth[h] = depth[p] + m.at(h, p);
      }
    }
    std::vector<double> stretch;
    for (HostId h = 0; h < m.size(); ++h) {
      if (h == root || !m.has(root, h) || m.at(root, h) <= 0) continue;
      stretch.push_back(depth[h] / m.at(root, h));
    }
    const Summary st = summarize(stretch);
    table.add_row({name, format_double(tree.edge_cost / 1000.0, 1),
                   format_double(st.median, 2), format_double(st.p90, 2),
                   std::to_string(tree.probes)});
  };

  print_section(std::cout, "Overlay multicast tree quality");
  Table table({"policy", "tree cost (s)", "median stretch", "p90 stretch",
               "probes"});
  evaluate("random", build(Policy::kRandom), table);
  evaluate("vivaldi", build(Policy::kVivaldi), table);
  evaluate("vivaldi+alert", build(Policy::kVivaldiAlert), table);
  table.print(std::cout);
  std::cout << "(stretch = tree path delay from the root / direct delay)\n";
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(example_main, argc, argv);
}
