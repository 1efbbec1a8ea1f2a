// live_outcore and live_inmem: a DelayStream (EWMA, alpha 0.3) keeps the
// measured matrix fresh while a closed loop re-measures a few random
// measured edges per epoch, waits until the epoch's severities are
// committed, then issues severity lookups.
//
//   live_outcore  1024 hosts into a ShardStreamEngine: 64-host tiles in
//                 files under the checkout, 256 KiB input and 128 KiB sink
//                 caches (~6% of the 4.2 MB view or sink); 8 edges/epoch.
//   live_inmem    2000 hosts into an IncrementalSeverity (repack_row plus
//                 edge_severity_batch, no tile I/O); 16 edges/epoch.
#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/severity.hpp"
#include "delayspace/datasets.hpp"
#include "obs/trace.hpp"
#include "stream/delay_stream.hpp"
#include "stream/incremental_severity.hpp"
#include "stream/shard_stream.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace tivbench {
namespace {

using tiv::core::TivAnalyzer;
using tiv::delayspace::DelayMatrix;
using tiv::delayspace::DelayMatrixView;
using tiv::delayspace::HostId;

constexpr int kSetups = 3;
constexpr float kEwmaAlpha = 0.3f;
constexpr std::size_t kLookupsPerEpoch = 256;
constexpr std::size_t kDirtyEdgesChecked = 32;
constexpr std::uint32_t kTileDim = 64;
constexpr std::size_t kInputCacheBytes = std::size_t{256} << 10;
constexpr std::size_t kSinkCacheBytes = std::size_t{128} << 10;

struct LiveShape {
  HostId hosts;
  std::size_t edges_per_epoch;
};
constexpr LiveShape kOutcore{1024, 8};
constexpr LiveShape kInmem{2000, 16};

/// The engine under test: exactly one of the two is engaged.
struct Engine {
  std::optional<tiv::stream::ShardStreamEngine> outcore;
  std::optional<tiv::stream::IncrementalSeverity> inmem;

  float severity(HostId a, HostId b) {
    return outcore ? outcore->severity(a, b) : inmem->severities().at(a, b);
  }
  void row(HostId a, std::vector<float>& out) {
    if (outcore) {
      outcore->severity_row(a, out);
    } else {
      for (HostId b = 0; b < out.size(); ++b) out[b] = inmem->severities().at(a, b);
    }
  }
};

/// The input cache must hold the tiles the repair keeps pinned per worker
/// (the same floor examples/outcore_monitor.cpp uses); the 256/128 KiB
/// budgets are raised only on hosts with many cores.
tiv::stream::ShardStreamConfig outcore_config(const std::string& dir,
                                              std::size_t threads) {
  const std::size_t in_tile = std::size_t{kTileDim} * kTileDim * sizeof(float) +
                              std::size_t{kTileDim} * sizeof(std::uint64_t);
  const std::size_t out_tile = std::size_t{kTileDim} * kTileDim * sizeof(float);
  tiv::stream::ShardStreamConfig cfg;
  cfg.tile_dim = kTileDim;
  cfg.input_budget_bytes = std::max(kInputCacheBytes, (3 * threads + 2) * in_tile);
  cfg.output_budget_bytes = std::max(kSinkCacheBytes, (threads + 1) * out_tile);
  cfg.input_path = dir + "/live_input.tiles";
  cfg.sink_path = dir + "/live_severity.tiles";
  return cfg;
}

/// Bit-compares committed severities against the batched kernel over a
/// freshly packed view of the stream's matrix; returns mismatches.
std::size_t count_bit_mismatches(const std::vector<float>& got,
                                 const std::vector<double>& want) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_bits(got[i], static_cast<float>(want[i]))) ++bad;
  }
  return bad;
}

}  // namespace

Outcome run_live(const Options& opt, bool outcore) {
  const LiveShape shape = outcore ? kOutcore : kInmem;
  const Seeds seeds(opt.seed);
  const std::size_t threads = tiv::parallel_thread_count();
  const auto cfg = outcore_config(opt.work_dir, threads);
  Outcome out;
  tiv::obs::SpanTracer tracer(1 << 18);
  auto traced = [&](bool on) {
    tiv::obs::SpanTracer::attach(opt.trace && on ? &tracer : nullptr);
  };

  // Set-up: generate the delay space, start the stream, build the engine.
  auto params =
      tiv::delayspace::dataset_params(tiv::delayspace::DatasetId::kDs2, shape.hosts);
  params.topology.seed = seeds.topology();
  params.hosts.seed = seeds.hosts();
  tiv::stream::EstimatorParams est;
  est.policy = tiv::stream::SmoothingPolicy::kEwma;
  est.ewma_alpha = kEwmaAlpha;
  LayerClock setup, generate, engine_build;
  std::vector<double> setup_plain, setup_traced;
  std::optional<tiv::delayspace::DelaySpace> space;
  std::optional<tiv::stream::DelayStream> stream;
  Engine engine;
  for (int s = 0; s < kSetups; ++s) {
    engine.outcore.reset();
    engine.inmem.reset();
    stream.reset();
    space.reset();
    traced(s % 2 == 1);
    setup.time([&] {
      generate.time(
          [&] { space.emplace(tiv::delayspace::generate_delay_space(params)); });
      stream.emplace(space->measured, est);
      engine_build.time([&] {
        if (outcore) {
          engine.outcore.emplace(stream->matrix(), cfg);
        } else {
          engine.inmem.emplace(stream->matrix());
        }
      });
    });
    traced(false);
    (opt.trace && s % 2 == 1 ? setup_traced : setup_plain).push_back(setup.last_s());
  }
  const double traced_setups = static_cast<double>(setup_traced.size());
  const double graph_build_ms =
      traced_setups > 0 ? tracer.total_ns("graph-build") / 1e6 / traced_setups : 0.0;
  const double policy_batch_ms =
      traced_setups > 0 ? tracer.total_ns("policy-batch") / 1e6 / traced_setups : 0.0;
  tracer.clear();  // epoch spans only from here on
  const double rss_after_setup = peak_rss_mb();

  const DelayMatrix& truth = space->measured;
  const HostId n = truth.size();
  tiv::Rng churn(seeds.churn());
  QueryMix queries(seeds.queries(), n);

  LayerClock ingest, apply, view_pack, round;
  RoundLog log;
  std::vector<double> dirty_hosts, edges_recomputed, rows_repacked;
  std::uint64_t sink_hits = 0, sink_misses = 0, lookups = 0;
  std::size_t epochs = 0;
  std::vector<tiv::stream::DelaySample> batch;
  std::vector<std::pair<HostId, HostId>> edges;
  std::vector<float> got;
  const auto before = tiv::obs::MetricsRegistry::instance().snapshot();
  const double t_start = wall_s();
  while (wall_s() - t_start < opt.seconds) {
    ++epochs;
    // Re-measure random measured edges; timestamps rise with the epoch, so
    // no sample is stale and every one is applied.
    batch.clear();
    while (batch.size() < shape.edges_per_epoch) {
      const auto a = static_cast<HostId>(churn.uniform_index(n));
      const auto b = static_cast<HostId>(churn.uniform_index(n));
      if (!truth.has(a, b)) continue;
      const float sample = truth.at(a, b) * static_cast<float>(churn.uniform(0.85, 1.25));
      batch.push_back({a, b, sample, static_cast<double>(epochs)});
    }
    const bool on = opt.trace && epochs % 2 == 0;
    log.begin();
    traced(on);
    tiv::stream::Epoch epoch;
    try {
      round.time([&] {
        epoch = ingest.time([&] {
          stream->ingest(batch);
          return stream->commit_epoch();
        });
        apply.time([&] {
          if (outcore) {
            const auto st = engine.outcore->apply_epoch(stream->matrix(), epoch.dirty_hosts);
            edges_recomputed.push_back(static_cast<double>(st.edges_recomputed));
            rows_repacked.push_back(0.0);
          } else {
            const auto st = engine.inmem->apply_epoch(stream->matrix(), epoch.dirty_hosts);
            edges_recomputed.push_back(static_cast<double>(st.edges_recomputed));
            rows_repacked.push_back(static_cast<double>(st.rows_repacked));
          }
        });
      });
    } catch (const std::exception&) {
      traced(false);
      ++out.attempted;
      ++out.failed;
      continue;
    }
    traced(false);
    dirty_hosts.push_back(static_cast<double>(epoch.dirty_hosts.size()));

    // Lookups between epochs.
    edges.clear();
    got.clear();
    const auto sink_before =
        outcore ? engine.outcore->output_cache_stats() : tiv::shard::CacheStats{};
    try {
      const double lookups_s = lookup_batch(
          queries, kLookupsPerEpoch,
          [&](HostId a, HostId b) { return engine.severity(a, b); }, edges, got);
      log.end(round.last_s(), {lookups_s}, on);
    } catch (const std::exception&) {
      out.attempted += 1 + kLookupsPerEpoch;
      out.failed += kLookupsPerEpoch;
      continue;
    }
    if (outcore) {
      const auto sink_after = engine.outcore->output_cache_stats();
      sink_hits += sink_after.hits - sink_before.hits;
      sink_misses += sink_after.misses - sink_before.misses;
    }
    lookups += kLookupsPerEpoch;

    // Checks, outside every timed region: the looked-up severities and a
    // sample of this epoch's repaired edges, bit for bit against the
    // batched kernel over a freshly packed view of the stream's matrix.
    const std::size_t looked_up = got.size();
    try {
      for (std::size_t k = 0; k < kDirtyEdgesChecked && !epoch.dirty_hosts.empty(); ++k) {
        const HostId a = epoch.dirty_hosts[churn.uniform_index(epoch.dirty_hosts.size())];
        const auto b = static_cast<HostId>(churn.uniform_index(n));
        if (a == b) continue;
        edges.emplace_back(a, b);
        got.push_back(engine.severity(a, b));
      }
      const auto view = view_pack.time(
          [&] { return std::make_unique<DelayMatrixView>(stream->matrix()); });
      const auto want = TivAnalyzer(stream->matrix()).edge_severity_batch(edges, view.get());
      std::size_t bad_lookups = 0;
      for (std::size_t i = 0; i < looked_up; ++i) {
        if (!same_bits(got[i], static_cast<float>(want[i]))) ++bad_lookups;
      }
      out.failed += bad_lookups +
                    (count_bit_mismatches(got, want) > bad_lookups ? 1 : 0);

      // Self-check: the same comparison must catch one flipped bit.
      auto flipped = got;
      flipped.back() = flip_bit(flipped.back(), 0);
      if (count_bit_mismatches(flipped, want) != count_bit_mismatches(got, want) + 1)
        out.correct = false;
    } catch (const std::exception&) {
      ++out.failed;
    }
    out.attempted += 1 + kLookupsPerEpoch;
    // Return the checker's freed buffers to the OS, so the peak RSS tracks
    // what the engine holds rather than heap fragmentation the per-epoch
    // check leaves behind.
    malloc_trim(0);
  }
  const double rss_after_loop = peak_rss_mb();
  const auto delta =
      tiv::obs::MetricsRegistry::instance().snapshot().delta_since(before);
  const auto spans = span_self_times(tracer.events());
  const std::vector<double> round_plain = log.rounds(false);
  const std::vector<double> lookups_us = scaled(log.lookups(), 1e6);

  // Final state, in full, against all_severities over a fresh view.
  LayerClock all_sev;
  ++out.attempted;
  try {
    const auto view = view_pack.time(
        [&] { return std::make_unique<DelayMatrixView>(stream->matrix()); });
    const auto want = all_sev.time(
        [&] { return TivAnalyzer(stream->matrix()).all_severities(view.get()); });
    std::size_t bad = 0;
    std::vector<float> row(n), want_row(n);
    for (HostId a = 0; a < n; ++a) {
      engine.row(a, row);
      for (HostId b = 0; b < n; ++b) {
        want_row[b] = a == b ? row[b] : want.at(a, b);
        if (!same_bits(row[b], want_row[b])) ++bad;
      }
    }
    if (bad != 0) ++out.failed;
    row.back() = flip_bit(row.back(), 0);  // self-check on the last row
    std::size_t flipped_bad = 0;
    for (HostId b = 0; b < n; ++b) flipped_bad += !same_bits(row[b], want_row[b]);
    if (flipped_bad == 0) out.correct = false;
  } catch (const std::exception&) {
    ++out.failed;
  }
  engine.outcore.reset();  // removes the tile files

  const double n_epochs = std::max<double>(1.0, static_cast<double>(round.wall().size()));
  const auto per_epoch = [&](const char* name) {
    return static_cast<double>(counter_of(delta, name)) / n_epochs;
  };
  const double recomputed = mean(edges_recomputed);
  const double witness_ops = 0.5 * n * (n - 1.0) * n;
  auto& e = out.end_to_end;
  e["setup_s"] = {median(setup_plain), "s"};
  e["round_ms_p50"] = {1e3 * median(round_plain), "ms"};
  e["lookups_us_p50"] = {median(lookups_us), "us"};

  auto& p = out.per_layer;
  p["delayspace.generate_s"] = {generate.median_s(), "s"};
  p["topology.graph_build_ms"] = {graph_build_ms, "ms"};
  p["routing.policy_batch_ms"] = {policy_batch_ms, "ms"};
  p["stream.engine_build_s"] = {engine_build.median_s(), "s"};
  p["delayspace.view_pack_ms"] = {1e3 * view_pack.median_s(), "ms"};
  p["core.all_severities_s"] = {all_sev.median_s(), "s"};
  p["core.witness_ops"] = {witness_ops, "count"};
  p["core.witness_gops"] = {witness_ops / all_sev.median_s() / 1e9, "Gop/s"};
  p["core.all_severities_effective_cores"] = {all_sev.effective_cores(), "cores"};
  p["stream.ingest_us"] = {1e6 * ingest.median_s(), "us"};
  p["stream.apply_epoch_ms"] = {1e3 * apply.median_s(), "ms"};
  p["stream.epoch_ms_p95"] = {1e3 * quantile(round_plain, 0.95), "ms"};
  p["stream.dirty_hosts"] = {mean(dirty_hosts), "count"};
  p["util.pool_effective_cores"] = {apply.effective_cores(), "cores"};
  p["stream.rows_repacked"] = {mean(rows_repacked), "count"};
  p["stream.edges_recomputed"] = {recomputed, "count"};
  p["core.repair_witness_gops"] = {recomputed * n / apply.median_s() / 1e9, "Gop/s"};
  if (outcore) {
    const double tiles = per_epoch("engine.severity_tiles_committed");
    const double hits = per_epoch("cache.input.hits");
    const double misses = per_epoch("cache.input.misses");
    p["engine.edges_recomputed"] = {per_epoch("engine.edges_recomputed"), "count"};
    p["engine.severity_tiles_committed"] = {tiles, "count"};
    p["engine.input_tiles_repacked"] = {per_epoch("engine.input_tiles_repacked"), "count"};
    p["shard.input_read_bytes"] = {per_epoch("shard.input.read_bytes"), "bytes"};
    p["shard.input_reads"] = {per_epoch("shard.input.reads"), "count"};
    p["shard.sink_write_bytes"] = {per_epoch("shard.sink.write_bytes"), "bytes"};
    p["shard.cache_hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
    p["shard.cache_evictions"] = {per_epoch("cache.input.evictions"), "count"};
    p["shard.prefetch_drops"] = {per_epoch("cache.input.prefetch_drops"), "count"};
    p["stream.repair_useful_fraction"] = {
        tiles > 0 ? per_epoch("engine.edges_recomputed") / (tiles * kTileDim * kTileDim) : 0.0,
        "ratio"};
    p["sink.cache_hit_ratio"] = {
        sink_hits + sink_misses > 0
            ? static_cast<double>(sink_hits) / static_cast<double>(sink_hits + sink_misses)
            : 0.0,
        "ratio"};
    p["sink.lookups_us_p95"] = {quantile(lookups_us, 0.95), "us"};
    p["sink.misses_per_query"] = {
        lookups > 0 ? static_cast<double>(sink_misses) / static_cast<double>(lookups) : 0.0,
        "count"};
  }
  if (opt.trace) {
    const auto self_ms = [&](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() || it->second.count == 0
                 ? 0.0
                 : it->second.self_ns / 1e6 / static_cast<double>(it->second.count);
    };
    p["stream.epoch_self_ms"] = {self_ms("epoch"), "ms"};
    p["shard.tile_repack_self_ms"] = {self_ms("tile-repack"), "ms"};
    p["core.band_pair_stream_self_ms"] = {self_ms("band-pair-stream"), "ms"};
    p["sink.commit_self_ms"] = {self_ms("sink-commit"), "ms"};
    p["stream.view_repair_self_ms"] = {self_ms("view-repair"), "ms"};
    add_trace_overhead(p, setup_plain, setup_traced, round_plain, log.rounds(true));
    p["obs.spans_dropped"] = {static_cast<double>(tracer.dropped()), "count"};
  }

  out.params = {
      {"dataset", json_string("ds2")},
      {"hosts", json_number(n)},
      {"engine", json_string(outcore ? "ShardStreamEngine" : "IncrementalSeverity")},
      {"estimator", json_string("ewma")},
      {"ewma_alpha", json_number(kEwmaAlpha)},
      {"edges_per_epoch", json_number(static_cast<double>(shape.edges_per_epoch))},
      {"lookups_per_epoch", json_number(kLookupsPerEpoch)},
      {"lookup_mix", json_string("3/4 on 4 watched hosts' rows, 1/4 uniform")},
      {"dirty_edges_checked_per_epoch", json_number(kDirtyEdgesChecked)},
      {"setups", json_number(kSetups)},
      {"epochs", json_number(n_epochs)},
  };
  if (outcore) {
    out.params["tile_dim"] = json_number(kTileDim);
    out.params["input_cache_bytes"] = json_number(static_cast<double>(cfg.input_budget_bytes));
    out.params["sink_cache_bytes"] = json_number(static_cast<double>(cfg.output_budget_bytes));
    out.params["tile_dir"] = json_string(std::filesystem::path(cfg.input_path).parent_path().string());
  }
  out.params["round_ms"] = distribution_json(scaled(round_plain, 1e3));
  out.params["iterations"] = json_number(static_cast<double>(log.iterations()));
  out.params["steal_rejected"] = json_number(static_cast<double>(log.stolen()));
  out.params["steal_filtered"] = log.filtered() ? "true" : "false";
  out.params["lookups_us"] = distribution_json(lookups_us);
  out.params["peak_rss_mb_after_setup"] = json_number(rss_after_setup);
  out.params["peak_rss_mb_after_loop"] = json_number(rss_after_loop);
  out.layers = {
      {"setup", layer_json(setup)},       {"generate", layer_json(generate)},
      {"engine_build", layer_json(engine_build)}, {"ingest", layer_json(ingest)},
      {"apply_epoch", layer_json(apply)}, {"view_pack", layer_json(view_pack)},
      {"all_severities", layer_json(all_sev)}, {"epoch", layer_json(round)},
  };
  return out;
}

}  // namespace tivbench
