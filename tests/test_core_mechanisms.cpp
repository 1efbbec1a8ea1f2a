// Dynamic-neighbor Vivaldi, the severity filter strawman, TIV-aware
// Meridian wiring, cluster analysis, and proximity.
#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/cluster_analysis.hpp"
#include "core/dynamic_neighbor.hpp"
#include "core/proximity.hpp"
#include "core/severity_filter.hpp"
#include "core/tiv_aware.hpp"
#include "delayspace/clustering.hpp"
#include "delayspace/generate.hpp"
#include "util/stats.hpp"

namespace tiv::core {
namespace {

delayspace::DelaySpace medium_space(std::uint64_t seed = 71,
                                    std::uint32_t hosts = 200) {
  delayspace::DelaySpaceParams p;
  p.topology.num_ases = 70;
  p.topology.seed = seed;
  p.hosts.num_hosts = hosts;
  p.hosts.seed = seed + 1;
  return delayspace::generate_delay_space(p);
}

// --- DynamicNeighborVivaldi ------------------------------------------------

TEST(DynamicNeighbor, KeepsNeighborCountStable) {
  const auto ds = medium_space();
  embedding::VivaldiParams vp;
  vp.neighbors_per_node = 16;
  DynamicNeighborParams dp;
  dp.period_seconds = 30;
  DynamicNeighborVivaldi dyn(ds.measured, vp, dp);
  dyn.run_iteration();
  dyn.run_iteration();
  EXPECT_EQ(dyn.iterations_done(), 2u);
  for (delayspace::HostId i = 0; i < ds.measured.size(); ++i) {
    EXPECT_EQ(dyn.system().neighbors(i).size(), 16u);
  }
}

TEST(DynamicNeighbor, NeighborEdgesAreDeduplicatedPairs) {
  const auto ds = medium_space(73, 100);
  embedding::VivaldiParams vp;
  vp.neighbors_per_node = 8;
  DynamicNeighborParams dp;
  dp.period_seconds = 10;
  const DynamicNeighborVivaldi dyn(ds.measured, vp, dp);
  const auto edges = dyn.neighbor_edges();
  std::set<std::pair<delayspace::HostId, delayspace::HostId>> unique(
      edges.begin(), edges.end());
  EXPECT_EQ(unique.size(), edges.size());
  for (const auto& [a, b] : edges) EXPECT_LT(a, b);
}

TEST(DynamicNeighbor, ReducesNeighborEdgeSeverity) {
  // The headline Fig. 22 effect: iterating the update shifts the neighbor
  // edge severity distribution down.
  const auto ds = medium_space(75, 250);
  embedding::VivaldiParams vp;
  vp.neighbors_per_node = 16;
  DynamicNeighborParams dp;
  dp.period_seconds = 60;
  DynamicNeighborVivaldi dyn(ds.measured, vp, dp);
  const TivAnalyzer analyzer(ds.measured);

  auto mean_severity = [&] {
    const auto edges = dyn.neighbor_edges();
    double sum = 0.0;
    for (const auto& [a, b] : edges) sum += analyzer.edge_severity(a, b);
    return sum / static_cast<double>(edges.size());
  };
  const double before = mean_severity();
  for (int it = 0; it < 5; ++it) dyn.run_iteration();
  const double after = mean_severity();
  EXPECT_LT(after, before * 0.9);
}

// --- SeverityFilter ---------------------------------------------------------

TEST(SeverityFilter, FiltersRequestedFraction) {
  const auto ds = medium_space(77, 150);
  const SeverityMatrix sev = TivAnalyzer(ds.measured).all_severities();
  const SeverityFilter filter(ds.measured, sev, 0.2);
  const std::size_t edges = ds.measured.measured_pair_count();
  EXPECT_NEAR(static_cast<double>(filter.filtered_count()) /
                  static_cast<double>(edges),
              0.2, 0.05);
}

TEST(SeverityFilter, FilteredEdgesHaveHigherSeverityThanKept) {
  const auto ds = medium_space(79, 120);
  const SeverityMatrix sev = TivAnalyzer(ds.measured).all_severities();
  const SeverityFilter filter(ds.measured, sev, 0.1);
  for (delayspace::HostId i = 0; i < ds.measured.size(); ++i) {
    for (delayspace::HostId j = i + 1; j < ds.measured.size(); ++j) {
      if (filter.filtered(i, j)) {
        EXPECT_GE(sev.at(i, j), filter.cutoff_severity());
      } else {
        EXPECT_LT(sev.at(i, j), filter.cutoff_severity());
      }
    }
  }
}

TEST(SeverityFilter, ZeroFractionFiltersNothing) {
  const auto ds = medium_space(81, 80);
  const SeverityMatrix sev = TivAnalyzer(ds.measured).all_severities();
  const SeverityFilter filter(ds.measured, sev, 0.0);
  EXPECT_EQ(filter.filtered_count(), 0u);
  EXPECT_FALSE(filter.filtered(0, 1));
}

TEST(SeverityFilter, AppliedToVivaldiAvoidsFilteredEdges) {
  const auto ds = medium_space(83, 150);
  const SeverityMatrix sev = TivAnalyzer(ds.measured).all_severities();
  const SeverityFilter filter(ds.measured, sev, 0.2);
  embedding::VivaldiParams vp;
  vp.neighbors_per_node = 16;
  embedding::VivaldiSystem sys(ds.measured, vp);
  apply_filter_to_vivaldi(sys, filter);
  for (delayspace::HostId i = 0; i < ds.measured.size(); ++i) {
    for (delayspace::HostId n : sys.neighbors(i)) {
      EXPECT_FALSE(filter.filtered(i, n));
    }
  }
}

// --- TIV-aware Meridian wiring ---------------------------------------------

TEST(TivAware, PredictorMatchesVivaldi) {
  const auto ds = medium_space(85, 80);
  embedding::VivaldiParams vp;
  embedding::VivaldiSystem sys(ds.measured, vp);
  sys.run(30);
  const auto pred = vivaldi_predictor(sys);
  EXPECT_DOUBLE_EQ(pred(3, 7), sys.predicted(3, 7));
}

TEST(TivAware, ParamsCarryPaperSettings) {
  const auto ds = medium_space(87, 80);
  embedding::VivaldiParams vp;
  embedding::VivaldiSystem sys(ds.measured, vp);
  const auto mp = tiv_aware_meridian_params(sys);
  EXPECT_TRUE(mp.adjust_rings);
  EXPECT_TRUE(mp.restart_on_alert);
  EXPECT_DOUBLE_EQ(mp.ts, 0.6);
  EXPECT_DOUBLE_EQ(mp.tl, 2.0);
  ASSERT_TRUE(static_cast<bool>(mp.predictor));
  EXPECT_DOUBLE_EQ(mp.predictor(1, 2), sys.predicted(1, 2));
}

// --- Cluster analysis -------------------------------------------------------

TEST(ClusterAnalysis, CrossClusterEdgesCauseMoreViolations) {
  const auto ds = medium_space(89, 250);
  const SeverityMatrix sev = TivAnalyzer(ds.measured).all_severities();
  const auto clustering = delayspace::cluster_delay_space(ds.measured, {});
  ASSERT_GE(clustering.num_clusters(), 2u);
  const ClusterTivStats stats =
      cluster_tiv_stats(ds.measured, sev, clustering, 3000);
  ASSERT_GT(stats.edges_within, 0u);
  ASSERT_GT(stats.edges_cross, 0u);
  // The paper's in-text DS^2 numbers: 80 within vs 206 cross. Direction
  // must match.
  EXPECT_GT(stats.mean_violations_cross, stats.mean_violations_within);
}

TEST(ClusterAnalysis, ExhaustiveStatsMatchScalarRecomputation) {
  // The batched masked-view violation counts must reproduce the scalar
  // edge_stats counts exactly, so the aggregated means are bit-equal to a
  // brute-force recomputation over the same (exhaustive) edge set.
  const auto ds = medium_space(88, 60);
  const DelayMatrix& m = ds.measured;
  const SeverityMatrix sev = TivAnalyzer(m).all_severities();
  const auto clustering = delayspace::cluster_delay_space(m, {});
  const ClusterTivStats stats = cluster_tiv_stats(m, sev, clustering, 0);

  const TivAnalyzer analyzer(m);
  double viol_within = 0.0, viol_cross = 0.0;
  double sev_within = 0.0, sev_cross = 0.0;
  std::size_t n_within = 0, n_cross = 0;
  for (delayspace::HostId i = 0; i < m.size(); ++i) {
    for (delayspace::HostId j = i + 1; j < m.size(); ++j) {
      if (!m.has(i, j)) continue;
      const auto count =
          static_cast<double>(analyzer.edge_stats(i, j).violation_count);
      if (clustering.same_cluster(i, j)) {
        ++n_within;
        viol_within += count;
        sev_within += sev.at(i, j);
      } else {
        ++n_cross;
        viol_cross += count;
        sev_cross += sev.at(i, j);
      }
    }
  }
  EXPECT_EQ(stats.edges_within, n_within);
  EXPECT_EQ(stats.edges_cross, n_cross);
  EXPECT_EQ(stats.edges_requested, n_within + n_cross);
  if (n_within > 0) {
    EXPECT_DOUBLE_EQ(stats.mean_violations_within,
                     viol_within / static_cast<double>(n_within));
    EXPECT_DOUBLE_EQ(stats.mean_severity_within,
                     sev_within / static_cast<double>(n_within));
  }
  if (n_cross > 0) {
    EXPECT_DOUBLE_EQ(stats.mean_violations_cross,
                     viol_cross / static_cast<double>(n_cross));
    EXPECT_DOUBLE_EQ(stats.mean_severity_cross,
                     sev_cross / static_cast<double>(n_cross));
  }
}

TEST(ClusterAnalysis, SampledStatsUseDistinctEdgesAndReportRequested) {
  // 10 hosts, dense: 45 edges. Requesting 1000 must cap at 45 distinct
  // edges (the old with-replacement sampler returned ~1000 rows with heavy
  // duplication) and surface the requested count.
  delayspace::DelayMatrix m(10);
  for (delayspace::HostId i = 0; i < 10; ++i) {
    for (delayspace::HostId j = i + 1; j < 10; ++j) {
      m.set(i, j, 10.0f + static_cast<float>(i + j));
    }
  }
  const SeverityMatrix sev = TivAnalyzer(m).all_severities();
  const auto clustering = delayspace::cluster_delay_space(m, {});
  const ClusterTivStats stats = cluster_tiv_stats(m, sev, clustering, 1000);
  EXPECT_EQ(stats.edges_requested, 1000u);
  EXPECT_LE(stats.edges_within + stats.edges_cross, 45u);
}

TEST(ClusterAnalysis, PrebuiltViewMatchesSelfBuilt) {
  const auto ds = medium_space(90, 80);
  const DelayMatrix& m = ds.measured;
  const SeverityMatrix sev = TivAnalyzer(m).all_severities();
  const auto clustering = delayspace::cluster_delay_space(m, {});
  const delayspace::DelayMatrixView view(m);
  const ClusterTivStats a = cluster_tiv_stats(m, sev, clustering, 500, 7);
  const ClusterTivStats b =
      cluster_tiv_stats(m, sev, clustering, 500, 7, &view);
  EXPECT_EQ(a.edges_within, b.edges_within);
  EXPECT_EQ(a.edges_cross, b.edges_cross);
  EXPECT_DOUBLE_EQ(a.mean_violations_within, b.mean_violations_within);
  EXPECT_DOUBLE_EQ(a.mean_violations_cross, b.mean_violations_cross);
}

TEST(ClusterAnalysis, GridHasRequestedShape) {
  const auto ds = medium_space(91, 120);
  const SeverityMatrix sev = TivAnalyzer(ds.measured).all_severities();
  const auto clustering = delayspace::cluster_delay_space(ds.measured, {});
  const auto grid = severity_cluster_grid(ds.measured, sev, clustering, 24);
  ASSERT_EQ(grid.size(), 24u);
  for (const auto& row : grid) {
    ASSERT_EQ(row.size(), 24u);
    for (double v : row) EXPECT_GE(v, 0.0);
  }
}

TEST(ClusterAnalysis, GridDiagonalBlocksDarker) {
  // Within-cluster blocks (diagonal) must average lower severity than
  // off-diagonal blocks.
  const auto ds = medium_space(93, 250);
  const SeverityMatrix sev = TivAnalyzer(ds.measured).all_severities();
  const auto clustering = delayspace::cluster_delay_space(ds.measured, {});
  ASSERT_GE(clustering.num_clusters(), 2u);
  const std::size_t g = 30;
  const auto grid = severity_cluster_grid(ds.measured, sev, clustering, g);
  // Approximate block boundaries from cluster sizes.
  const double n = static_cast<double>(ds.measured.size());
  std::vector<std::size_t> boundaries;  // grid row where each cluster ends
  std::size_t acc = 0;
  for (const auto& members : clustering.members) {
    acc += members.size();
    boundaries.push_back(static_cast<std::size_t>(acc / n * g));
  }
  double diag_sum = 0.0;
  std::size_t diag_n = 0;
  double off_sum = 0.0;
  std::size_t off_n = 0;
  for (std::size_t r = 0; r < g; ++r) {
    for (std::size_t c = 0; c < g; ++c) {
      // Which cluster block does (r, c) fall into?
      auto block_of = [&](std::size_t x) {
        for (std::size_t b = 0; b < boundaries.size(); ++b) {
          if (x < boundaries[b]) return static_cast<int>(b);
        }
        return -1;  // noise region
      };
      const int br = block_of(r);
      const int bc = block_of(c);
      if (br < 0 || bc < 0) continue;
      if (br == bc) {
        diag_sum += grid[r][c];
        ++diag_n;
      } else {
        off_sum += grid[r][c];
        ++off_n;
      }
    }
  }
  ASSERT_GT(diag_n, 0u);
  ASSERT_GT(off_n, 0u);
  EXPECT_LT(diag_sum / diag_n, off_sum / off_n);
}

// --- Proximity ---------------------------------------------------------------

TEST(Proximity, NearestNeighborIsTrueMinimum) {
  delayspace::DelayMatrix m(4);
  m.set(0, 1, 10.0f);
  m.set(0, 2, 5.0f);
  m.set(0, 3, 20.0f);
  m.set(1, 2, 1.0f);
  m.set(1, 3, 1.0f);
  m.set(2, 3, 1.0f);
  EXPECT_EQ(nearest_neighbor(m, 0, /*exclude=*/3), 2u);
  EXPECT_EQ(nearest_neighbor(m, 0, /*exclude=*/2), 1u);
}

TEST(Proximity, NoMeasurableNeighborReturnsSelf) {
  delayspace::DelayMatrix m(2);
  EXPECT_EQ(nearest_neighbor(m, 0, 1), 0u);
}

TEST(Proximity, ExperimentProducesPairedDistributions) {
  const auto ds = medium_space(95, 150);
  ProximityParams p;
  p.sample_edges = 500;
  const ProximityResult r = proximity_experiment(ds.measured, p);
  EXPECT_EQ(r.nearest_pair_diffs.size(), r.random_pair_diffs.size());
  EXPECT_GT(r.nearest_pair_diffs.size(), 300u);
  for (double d : r.nearest_pair_diffs) EXPECT_GE(d, 0.0);
}

TEST(Proximity, ReportsAchievedVsRequestedOnMostlyMissingMatrix) {
  // A 40-host matrix with one measured 6-clique: at most 15 distinct
  // primary edges exist, so a 2000-sample request must exhaust and report
  // the achieved count instead of silently returning a short vector.
  delayspace::DelayMatrix m(40);
  for (delayspace::HostId i = 0; i < 6; ++i) {
    for (delayspace::HostId j = i + 1; j < 6; ++j) {
      m.set(i, j, 20.0f + static_cast<float>(3 * i + j));
    }
  }
  ProximityParams p;
  p.sample_edges = 2000;
  p.seed = 5;
  const ProximityResult r = proximity_experiment(m, p);
  EXPECT_EQ(r.edges_requested, 2000u);
  EXPECT_EQ(r.edges_achieved, r.nearest_pair_diffs.size());
  EXPECT_LE(r.edges_achieved, 15u);
  EXPECT_TRUE(r.sampler_exhausted);
}

TEST(Proximity, AchievedCountMatchesDiffSizes) {
  const auto ds = medium_space(96, 120);
  ProximityParams p;
  p.sample_edges = 400;
  const ProximityResult r = proximity_experiment(ds.measured, p);
  EXPECT_EQ(r.edges_requested, 400u);
  EXPECT_EQ(r.edges_achieved, r.nearest_pair_diffs.size());
  EXPECT_EQ(r.edges_achieved, r.random_pair_diffs.size());
}

TEST(Proximity, PrebuiltViewMatchesSelfBuilt) {
  const auto ds = medium_space(98, 100);
  ProximityParams p;
  p.sample_edges = 300;
  const delayspace::DelayMatrixView view(ds.measured);
  const ProximityResult a = proximity_experiment(ds.measured, p);
  const ProximityResult b = proximity_experiment(ds.measured, p, &view);
  ASSERT_EQ(a.nearest_pair_diffs.size(), b.nearest_pair_diffs.size());
  for (std::size_t i = 0; i < a.nearest_pair_diffs.size(); ++i) {
    EXPECT_EQ(a.nearest_pair_diffs[i], b.nearest_pair_diffs[i]);
    EXPECT_EQ(a.random_pair_diffs[i], b.random_pair_diffs[i]);
  }
}

TEST(Proximity, NearestPairsOnlyMarginallyMoreSimilar) {
  // The paper's negative result: nearest-pair severity differences are not
  // much tighter than random-pair ones. Check direction (<=) but also that
  // the gap is not enormous.
  const auto ds = medium_space(97, 250);
  ProximityParams p;
  p.sample_edges = 800;
  const ProximityResult r = proximity_experiment(ds.measured, p);
  const double near_med = percentile(r.nearest_pair_diffs, 50);
  const double rand_med = percentile(r.random_pair_diffs, 50);
  EXPECT_LE(near_med, rand_med * 1.5);
}

}  // namespace
}  // namespace tiv::core
