#include "core/shard_severity.hpp"

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/band_pair_driver.hpp"
#include "obs/trace.hpp"

namespace tiv::core {
namespace {

using shard::TileCache;
using shard::TileRef;
using shard::TileStore;

/// The storage source: tile_dim bands, one witness band per tile column,
/// tiles read on demand and pinned through the cache. Rows are full tile
/// width: padding adds +0.0.
class StoreSource {
 public:
  struct Block {
    TileRef tile;
    const float* row(std::uint32_t l) const { return tile->row(l); }
    const std::uint64_t* mask_row(std::uint32_t l) const {
      return tile->mask_row(l);
    }
  };

  StoreSource(const TileStore& store, TileCache& cache)
      : store_(store), cache_(cache) {}

  std::uint32_t band_dim() const { return store_.tile_dim(); }
  std::uint32_t bands() const { return store_.tiles_per_side(); }
  std::uint32_t band_rows(std::uint32_t b) const {
    return store_.band_rows(b);
  }
  std::uint32_t witness_bands() const { return store_.tiles_per_side(); }
  std::size_t scan_len() const { return store_.tile_dim(); }
  std::size_t mask_len() const { return store_.mask_words_per_row(); }
  Block delays(std::uint32_t bi, std::uint32_t bj) const {
    return {cache_.acquire(bi, bj)};
  }
  Block witnesses(std::uint32_t b, std::uint32_t k) const {
    return {cache_.acquire(b, k)};
  }

 private:
  const TileStore& store_;
  TileCache& cache_;
};

/// Composes band pair (bi, bj)'s severity tile in a worker-local O(tile^2)
/// image and commits it. A full build starts from zeros (create() zeroed
/// the store) and always commits. A repair reads the committed tile,
/// patches the selected pairs, and commits only if something was
/// recomputed or a stale value was reset to 0.
class SinkFinish {
 public:
  SinkFinish(sink::SeverityTileStore& sink, bool full_build)
      : sink_(sink), full_build_(full_build) {}

  void operator()(const BandPair& bp, const RatioKernel& kernel) {
    if (!full_build_ && bp.selected() == 0) return;
    const std::size_t T = sink_.tile_dim();
    std::vector<float> buf(sink_.payload_floats(), 0.0f);
    if (!full_build_) sink_.read_tile(bp.bi, bp.bj, buf.data());
    // Sets a cell (both orientations on a diagonal tile); true if changed.
    auto set = [&](const SelectedPair& p, float v) {
      bool changed = std::exchange(buf[p.al * T + p.cl], v) != v;
      if (bp.bi == bp.bj) {
        changed |= std::exchange(buf[p.cl * T + p.al], v) != v;
      }
      return changed;
    };
    bool zeroed = false;
    for (const SelectedPair& p : bp.unmeasured) zeroed |= set(p, 0.0f);
    if (!full_build_ && bp.measured.empty() && !zeroed) return;
    const auto nd = static_cast<double>(sink_.size());
    for (std::size_t t = 0; t < bp.measured.size(); ++t) {
      set(bp.measured[t], static_cast<float>(kernel.ratio_sum(t) / nd));
    }
    sink_.write_tile(bp.bi, bp.bj, buf.data());
    committed_.fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t committed() const { return committed_.load(); }

 private:
  sink::SeverityTileStore& sink_;
  bool full_build_;
  std::atomic<std::size_t> committed_{0};
};

void check_sink_matches(const TileStore& store,
                        const sink::SeverityTileStore& sink) {
  if (sink.size() != store.size() || sink.tile_dim() != store.tile_dim()) {
    throw std::invalid_argument(
        "severity sink geometry (n, tile_dim) must match the input store");
  }
  if (!sink.writable()) {
    throw std::invalid_argument("severity sink must be opened writable");
  }
}

}  // namespace

std::size_t pinned_input_floor(std::uint32_t tile_dim, std::size_t threads) {
  return 2 * threads * TileStore::tile_bytes_for(tile_dim);
}

SeverityMatrix all_severities_streamed(const TileStore& store,
                                       TileCache& cache) {
  SeverityMatrix sev(store.size());
  if (store.size() < 2) return sev;
  run_band_pairs<RatioKernel>(StoreSource(store, cache), AllPairs{},
                              MatrixFinish(sev));
  return sev;
}

void all_severities_to_sink(const TileStore& store, TileCache& cache,
                            sink::SeverityTileStore& sink) {
  check_sink_matches(store, sink);
  obs::Span span("band-pair-stream");
  run_band_pairs<RatioKernel>(StoreSource(store, cache), AllPairs{},
                              SinkFinish(sink, true));
}

void rebuild_sink_tile(const TileStore& store, TileCache& cache,
                       sink::SeverityTileStore& sink, std::uint32_t bi,
                       std::uint32_t bj) {
  check_sink_matches(store, sink);
  SinkFinish finish(sink, true);
  run_band_pair<RatioKernel>(StoreSource(store, cache), AllPairs{}, bi, bj,
                             finish);
}

void rebuild_sink_bands(const TileStore& store, TileCache& cache,
                        sink::SeverityTileStore& sink,
                        std::span<const std::uint32_t> bands) {
  check_sink_matches(store, sink);
  const std::uint32_t T = store.tile_dim();
  std::vector<HostId> hosts;
  for (const std::uint32_t b : bands) {
    if (b >= store.tiles_per_side()) {
      throw std::invalid_argument("rebuild_sink_bands: band out of range");
    }
    for (std::uint32_t l = 0; l < store.band_rows(b); ++l) {
      hosts.push_back(b * T + l);
    }
  }
  run_band_pairs<RatioKernel>(StoreSource(store, cache),
                              DirtyPairs(store.size(), T, hosts),
                              SinkFinish(sink, true));
}

SinkRepairStats repair_severities_to_sink(
    const TileStore& store, TileCache& cache, sink::SeverityTileStore& sink,
    std::span<const HostId> dirty_hosts) {
  check_sink_matches(store, sink);
  SinkRepairStats stats;
  if (dirty_hosts.empty() || store.size() < 2) return stats;
  const DirtyPairs dirty(store.size(), store.tile_dim(), dirty_hosts);
  obs::Span span("band-pair-stream");
  SinkFinish finish(sink, false);
  stats.edges_recomputed = run_band_pairs<RatioKernel>(
      StoreSource(store, cache), dirty, finish);
  stats.tiles_committed = finish.committed();
  return stats;
}

double violating_triangle_fraction_streamed(const TileStore& store,
                                            TileCache& cache) {
  if (store.size() < 3) return 0.0;
  TriangleCountFinish counts;
  run_band_pairs<CountKernel>(StoreSource(store, cache), AllPairs{}, counts);
  return counts.fraction();
}

}  // namespace tiv::core
