#include "core/proximity.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/edge_sampling.hpp"
#include "util/rng.hpp"

namespace tiv::core {

HostId nearest_neighbor(const DelayMatrix& matrix, HostId node,
                        HostId exclude, double min_delay_ms) {
  const auto row = matrix.row(node);
  const auto floor = static_cast<float>(min_delay_ms);
  HostId best = node;
  float best_d = std::numeric_limits<float>::infinity();
  for (HostId j = 0; j < matrix.size(); ++j) {
    if (j == node || j == exclude) continue;
    const float d = row[j];
    if (d >= floor && d < best_d) {
      best_d = d;
      best = j;
    }
  }
  return best;
}

ProximityResult proximity_experiment(const DelayMatrix& matrix,
                                     const ProximityParams& params,
                                     const delayspace::DelayMatrixView* view) {
  const HostId n = matrix.size();

  struct Sample {
    HostId a, b;        // the edge
    HostId an, bn;      // nearest-pair edge
    HostId ra, rb;      // random-pair edge
  };
  // Primary edges come from the shared duplicate-free sampler (a repeated
  // AB edge would repeat both of its difference entries); samples whose
  // nearest-pair or random-pair edge does not materialize are dropped and
  // replaced out of the same attempt budget. Random-pair edges draw from a
  // decorrelated stream and may repeat across samples — they are a
  // per-sample comparison baseline, not a population estimate.
  MeasuredPairSampler sampler(matrix, params.sample_edges, params.seed);
  Rng random_pair_rng(params.seed ^ 0xd1b54a32d192ed03ULL);
  std::vector<Sample> samples;
  // At most n(n-1)/2 distinct edges exist, whatever the request.
  samples.reserve(std::min<std::size_t>(
      params.sample_edges, static_cast<std::size_t>(n) * (n - 1) / 2));
  while (samples.size() < params.sample_edges) {
    const auto edge = sampler.next();
    if (!edge) break;
    Sample s;
    s.a = edge->first;
    s.b = edge->second;
    // Nearest-pair edge: nearest neighbors of both endpoints (excluding the
    // other endpoint so AnBn is a distinct edge from AB).
    s.an = nearest_neighbor(matrix, s.a, s.b, params.min_neighbor_delay_ms);
    s.bn = nearest_neighbor(matrix, s.b, s.a, params.min_neighbor_delay_ms);
    if (s.an == s.a || s.bn == s.b || s.an == s.bn ||
        !matrix.has(s.an, s.bn)) {
      continue;
    }
    // Random-pair edge.
    bool found_random = false;
    for (int attempt = 0; attempt < 30 && !found_random; ++attempt) {
      s.ra = static_cast<HostId>(random_pair_rng.uniform_index(n));
      s.rb = static_cast<HostId>(random_pair_rng.uniform_index(n));
      found_random = s.ra != s.rb && matrix.has(s.ra, s.rb);
    }
    if (!found_random) continue;
    samples.push_back(s);
  }

  // One batched severity call over all three edge roles: the packed view is
  // built (or reused) once instead of 3 * samples scalar row scans.
  std::vector<std::pair<HostId, HostId>> batch;
  batch.reserve(samples.size() * 3);
  for (const Sample& s : samples) {
    batch.emplace_back(s.a, s.b);
    batch.emplace_back(s.an, s.bn);
    batch.emplace_back(s.ra, s.rb);
  }
  const TivAnalyzer analyzer(matrix);
  const std::vector<double> sev = analyzer.edge_severity_batch(
      std::span<const std::pair<HostId, HostId>>(batch), view);

  ProximityResult out;
  out.nearest_pair_diffs.resize(samples.size());
  out.random_pair_diffs.resize(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out.nearest_pair_diffs[i] = std::abs(sev[3 * i] - sev[3 * i + 1]);
    out.random_pair_diffs[i] = std::abs(sev[3 * i] - sev[3 * i + 2]);
  }
  out.edges_requested = params.sample_edges;
  out.edges_achieved = samples.size();
  out.sampler_exhausted =
      sampler.exhausted() && samples.size() < params.sample_edges;
  return out;
}

}  // namespace tiv::core
