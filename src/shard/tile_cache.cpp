#include "shard/tile_cache.hpp"

#include <new>

namespace tiv::shard {

Tile::Tile(std::uint32_t tile_dim, std::size_t payload_floats,
           std::size_t mask_words)
    : tile_dim_(tile_dim),
      words_per_row_((tile_dim + 63) / 64),
      payload_(static_cast<float*>(
          ::operator new[](payload_floats * sizeof(float), kAlignVal))),
      masks_(mask_words, 0) {}

TileCache::TileCache(const TileStore& store, std::size_t budget_bytes)
    : store_(store),
      // Footprint charged per resident tile: the serialized size. The
      // in-memory layout is identical (payload + mask words); allocator
      // slack is not modeled.
      cache_(budget_bytes, store.tile_bytes(), "cache.input") {}

TileRef TileCache::acquire(std::uint32_t r, std::uint32_t c) {
  return cache_.acquire(key(r, c), [&]() -> TileRef {
    auto fresh = std::make_shared<Tile>(store_.tile_dim(),
                                        store_.payload_floats(),
                                        store_.mask_words());
    store_.read_tile(r, c, fresh->payload(), fresh->masks());
    return fresh;
  });
}

}  // namespace tiv::shard
