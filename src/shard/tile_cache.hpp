// Memory-budgeted, thread-safe LRU cache mapping TileStore tiles back into
// RAM as view-compatible blocks — the input-side instantiation of the
// shared LruTileCache core (shard/lru_tile_cache.hpp), which owns the
// concurrency model, stampede-free loads, pin-aware eviction, and the
// budget-accounting invariant: peak bytes <= max(budget, largest
// simultaneous pinned set). The band-pair driver pins at most two tiles
// per pool worker (core::pinned_input_floor), so a budget at or above that
// floor keeps stats().peak_bytes under it.
//
// What this layer adds on top of the core is the Tile block itself
// (64-byte-aligned payload rows + mask words, ready for the branch-free
// witness kernels). Tiles are read only on demand, by the thread that
// acquires them: there is no background reader, so between band-pair
// scans nothing touches the store and TileStore::repack_tile needs no
// quiesce step before invalidate().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "shard/lru_tile_cache.hpp"
#include "shard/tile_store.hpp"

namespace tiv::shard {

/// A tile resident in memory: the packed-view block for rows
/// [row_band*T, ..+T) x columns [col_band*T, ..+T). Payload rows are
/// 64-byte aligned (tile_dim is a multiple of 16 floats), ready for the
/// branch-free witness kernels.
class Tile {
 public:
  Tile(std::uint32_t tile_dim, std::size_t payload_floats,
       std::size_t mask_words);

  /// Payload row lr (tile-local), tile_dim floats.
  const float* row(std::size_t lr) const {
    return payload_.get() + lr * tile_dim_;
  }
  /// Bitmask row lr, mask_words_per_row words.
  const std::uint64_t* mask_row(std::size_t lr) const {
    return masks_.data() + lr * words_per_row_;
  }

  float* payload() { return payload_.get(); }
  std::uint64_t* masks() { return masks_.data(); }

 private:
  struct AlignedFree {
    void operator()(float* p) const { ::operator delete[](p, kAlignVal); }
  };
  static constexpr std::align_val_t kAlignVal{64};

  std::uint32_t tile_dim_;
  std::size_t words_per_row_;
  std::unique_ptr<float[], AlignedFree> payload_;
  std::vector<std::uint64_t> masks_;
};

using TileRef = std::shared_ptr<const Tile>;

class TileCache {
 public:
  /// The cache keeps a reference to `store`; it must outlive the cache, and
  /// the cache must outlive every TileRef it hands out.
  TileCache(const TileStore& store, std::size_t budget_bytes);

  TileCache(const TileCache&) = delete;
  TileCache& operator=(const TileCache&) = delete;

  /// Returns tile (r, c), loading it from the store on a miss. Thread-safe;
  /// blocks only when another thread is already loading the same tile.
  TileRef acquire(std::uint32_t r, std::uint32_t c);

  /// Drops tile (r, c) from the cache so the next acquire re-reads it from
  /// the store — the coherence hook for TileStore::repack_tile.
  /// Precondition: no outstanding TileRef pins the tile (the streaming
  /// engine invalidates only between epochs, when no scan is running).
  void invalidate(std::uint32_t r, std::uint32_t c) {
    cache_.invalidate(key(r, c));
  }

  std::size_t budget_bytes() const { return cache_.budget_bytes(); }
  CacheStats stats() const { return cache_.stats(); }

 private:
  static std::uint64_t key(std::uint32_t r, std::uint32_t c) {
    return (static_cast<std::uint64_t>(r) << 32) | c;
  }

  const TileStore& store_;
  LruTileCache<Tile> cache_;
};

}  // namespace tiv::shard
