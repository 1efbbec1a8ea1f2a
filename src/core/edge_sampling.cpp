#include "core/edge_sampling.hpp"

#include <algorithm>
#include <limits>

namespace tiv::core {
namespace {

std::size_t saturating_mul(std::size_t a, std::size_t b) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  return (b != 0 && a > kMax / b) ? kMax : a * b;
}

/// Unordered pairs of an n-host matrix: n(n-1)/2, the most any sample holds.
std::size_t pair_count(HostId n) {
  return n < 2 ? 0 : static_cast<std::size_t>(n) * (n - 1) / 2;
}

/// Pairs next() can ever return: measured, and positive when required.
std::size_t eligible_pairs(const DelayMatrix& m, bool require_positive) {
  std::size_t count = 0;
  for (HostId i = 0; i < m.size(); ++i) {
    for (HostId j = i + 1; j < m.size(); ++j) {
      count += m.has(i, j) && !(require_positive && m.at(i, j) <= 0.0f);
    }
  }
  return count;
}

}  // namespace

MeasuredPairSampler::MeasuredPairSampler(const DelayMatrix& matrix,
                                         std::size_t target,
                                         std::uint64_t seed,
                                         PairSampleOptions options)
    : matrix_(matrix),
      target_(target),
      // A matrix with fewer than two hosts has no pairs to draw; a zero
      // budget makes next() exhaust immediately instead of dividing by
      // zero in uniform_index.
      budget_(matrix.size() < 2
                  ? 0
                  : saturating_mul(target, options.attempts_per_pair)),
      // A target beyond n(n-1)/2 asks for more pairs than exist; only then
      // is the O(n^2) count paid, so ordinary calls draw exactly as before.
      eligible_(target > pair_count(matrix.size())
                    ? eligible_pairs(matrix, options.require_positive)
                    : std::numeric_limits<std::size_t>::max()),
      options_(options),
      rng_(seed) {
  seen_.reserve(
      std::min(saturating_mul(target, 2), pair_count(matrix.size())));
}

std::optional<std::pair<HostId, HostId>> MeasuredPairSampler::next() {
  const HostId n = matrix_.size();
  // Once every eligible pair has been returned, every further draw would
  // be rejected as a duplicate: stop instead of spending the budget.
  while (attempts_ < budget_ && seen_.size() < eligible_) {
    ++attempts_;
    auto i = static_cast<HostId>(rng_.uniform_index(n));
    auto j = static_cast<HostId>(rng_.uniform_index(n));
    if (i == j || !matrix_.has(i, j)) continue;
    if (options_.require_positive && matrix_.at(i, j) <= 0.0f) continue;
    if (i > j) std::swap(i, j);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint64_t>(j);
    if (!seen_.insert(key).second) continue;  // duplicate edge
    return std::make_pair(i, j);
  }
  exhausted_ = true;
  return std::nullopt;
}

PairSample sample_measured_pairs(const DelayMatrix& matrix, std::size_t count,
                                 std::uint64_t seed,
                                 PairSampleOptions options) {
  PairSample out;
  out.requested = count;
  out.pairs.reserve(std::min(count, pair_count(matrix.size())));
  MeasuredPairSampler sampler(matrix, count, seed, options);
  while (out.pairs.size() < count) {
    const auto pair = sampler.next();
    if (!pair) {
      out.exhausted = true;
      break;
    }
    out.pairs.push_back(*pair);
  }
  return out;
}

}  // namespace tiv::core
