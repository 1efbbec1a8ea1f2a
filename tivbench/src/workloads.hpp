// The three tivbench workloads (README.md has why each exists). Each runs a
// closed loop with one caller thread; the util pool does the parallel work.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "delayspace/delay_matrix.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace tivbench {

Outcome run_paper_batch(const Options& opt);
/// live_outcore (ShardStreamEngine) when `outcore`, else live_inmem
/// (IncrementalSeverity).
Outcome run_live(const Options& opt, bool outcore);

/// Independent input streams derived from the workload seed, so the
/// dataset, churn and queries do not depend on one another's draws.
struct Seeds {
  explicit Seeds(std::uint64_t seed) {
    tiv::Rng root(seed * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL);
    for (auto& s : v) s = root();
  }
  std::uint64_t topology() const { return v[0]; }
  std::uint64_t hosts() const { return v[1]; }
  std::uint64_t churn() const { return v[2]; }
  std::uint64_t queries() const { return v[3]; }
  std::uint64_t analysis() const { return v[4]; }
  std::array<std::uint64_t, 5> v{};
};

/// Severity lookups as a user issues them: three quarters on the rows of
/// a fixed 4-host watch list, one quarter uniform over all pairs.
class QueryMix {
 public:
  using HostId = tiv::delayspace::HostId;

  QueryMix(std::uint64_t seed, HostId n) : rng_(seed), n_(n) {
    const auto hosts = rng_.sample_without_replacement(n, watch_.size());
    std::copy(hosts.begin(), hosts.end(), watch_.begin());
  }
  std::pair<HostId, HostId> next() {
    const bool watched = (count_++ % 4) != 3;
    for (;;) {
      const auto a = watched ? watch_[rng_.uniform_index(watch_.size())]
                             : static_cast<HostId>(rng_.uniform_index(n_));
      const auto b = static_cast<HostId>(rng_.uniform_index(n_));
      if (a != b) return {a, b};
    }
  }

 private:
  tiv::Rng rng_;
  HostId n_;
  std::array<HostId, 4> watch_{};
  std::uint64_t count_ = 0;
};

/// Serves one batch of `count` lookups drawn from `mix` through `lookup`
/// (a callable (a, b) -> float), appending each edge and value for the
/// check; returns the batch's wall seconds. Batches are timed as a whole:
/// a single in-memory lookup is shorter than the clock's own overhead.
template <typename Lookup>
double lookup_batch(QueryMix& mix, std::size_t count, Lookup&& lookup,
                    std::vector<std::pair<QueryMix::HostId, QueryMix::HostId>>& edges,
                    std::vector<float>& got) {
  const std::size_t first = edges.size();
  for (std::size_t q = 0; q < count; ++q) edges.push_back(mix.next());
  got.resize(first + count);
  const double t0 = wall_s();
  for (std::size_t q = first; q < first + count; ++q) {
    got[q] = lookup(edges[q].first, edges[q].second);
  }
  return wall_s() - t0;
}

inline bool same_bits(float a, float b) {
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

/// `v` with bit `bit` flipped: the self-check's deliberately wrong result.
inline float flip_bit(float v, unsigned bit) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) ^
                              (std::uint32_t{1} << bit));
}

}  // namespace tivbench
