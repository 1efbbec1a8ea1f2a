// Shared duplicate-free sampling of measured pairs.
//
// Before this helper existed, four consumers hand-rolled the same
// rejection-sampling loop over random (i, j) draws — and three of them
// (cluster_tiv_stats, evaluate_detour_routing, proximity_experiment) drew
// *with* duplicates, unlike sampled_severities, which deduplicated via a
// `seen` set. A duplicate edge double-counts its statistics in whatever
// average the caller builds, skewing the figure the sample feeds. This
// header is the single sampling path: distinct measured unordered pairs,
// an explicit attempt budget, and an explicit achieved-vs-requested
// accounting so exhaustion on missing-heavy matrices is visible instead of
// a silently short vector.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "delayspace/delay_matrix.hpp"
#include "util/rng.hpp"

namespace tiv::core {

using delayspace::DelayMatrix;
using delayspace::HostId;

struct PairSampleOptions {
  /// Also reject measured pairs with zero delay (detour routing divides by
  /// and compares against the direct delay).
  bool require_positive = false;
  /// Rejection budget: at most attempts_per_pair * target draws in total
  /// (saturating; the sampler also stops once every measured pair has been
  /// returned, so a huge target cannot spin).
  /// Misses, unmeasured pairs, and duplicates all consume attempts, so on a
  /// mostly-missing matrix — or when target approaches the number of
  /// measured edges — the sampler exhausts rather than looping forever.
  std::size_t attempts_per_pair = 30;
};

/// Incremental sampler of distinct measured unordered pairs (first < second),
/// uniform over the measured edges up to rejection. Pull-based so callers
/// with per-sample validity filters of their own (proximity_experiment) can
/// keep drawing replacements for rejected samples out of the same budget.
///
/// The draw sequence, dedup key, and budget are exactly the ones
/// sampled_severities has always used, so routing it through this class
/// changes no sampled edge for a given seed.
class MeasuredPairSampler {
 public:
  MeasuredPairSampler(const DelayMatrix& matrix, std::size_t target,
                      std::uint64_t seed, PairSampleOptions options = {});

  /// Next distinct measured pair, or nullopt once the attempt budget is
  /// exhausted (never returns a pair twice).
  std::optional<std::pair<HostId, HostId>> next();

  std::size_t target() const { return target_; }
  /// Draws consumed so far (accepted + rejected).
  std::size_t attempts() const { return attempts_; }
  /// True once next() has returned nullopt: the budget ran out.
  bool exhausted() const { return exhausted_; }

 private:
  const DelayMatrix& matrix_;
  std::size_t target_;
  std::size_t budget_;
  /// Eligible pairs in the matrix when target exceeds n(n-1)/2 (next()
  /// stops once all are returned); SIZE_MAX otherwise.
  std::size_t eligible_;
  PairSampleOptions options_;
  Rng rng_;
  std::unordered_set<std::uint64_t> seen_;
  std::size_t attempts_ = 0;
  bool exhausted_ = false;
};

/// A batch of sampled pairs plus the achieved-vs-requested accounting the
/// result structs surface (ISSUE: the samplers used to silently return
/// fewer pairs than asked for when the rejection budget exhausted).
struct PairSample {
  std::vector<std::pair<HostId, HostId>> pairs;  ///< distinct, first < second
  std::size_t requested = 0;
  /// True when the attempt budget exhausted before `requested` pairs were
  /// found; pairs.size() is then the achieved count.
  bool exhausted = false;

  std::size_t achieved() const { return pairs.size(); }
};

/// Draws up to `count` distinct measured unordered pairs in one call — the
/// batch form every fixed-size consumer (sampled_severities,
/// cluster_tiv_stats, evaluate_detour_routing) routes through.
PairSample sample_measured_pairs(const DelayMatrix& matrix, std::size_t count,
                                 std::uint64_t seed,
                                 PairSampleOptions options = {});

}  // namespace tiv::core
