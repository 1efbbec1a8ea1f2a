// Out-of-core TIV severity: the band-pair driver (core/band_pair_driver.hpp)
// over a shard::TileStore read through a budgeted shard::TileCache.
//
// all_severities_streamed still returns an in-memory SeverityMatrix, so its
// footprint is O(budget) + O(N^2); violating_triangle_fraction_streamed is
// O(budget). all_severities_to_sink streams the result band pair by band
// pair into a sink::SeverityTileStore instead (O(budget + tile^2)), and
// repair_severities_to_sink is its dirty-epoch form. Each entry point is
// the in-memory driver with another source, selection or finish, so
// results are bit-identical to TivAnalyzer's by construction (see
// docs/PERFORMANCE.md, "Sharded storage & out-of-core severity").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/severity.hpp"
#include "shard/tile_cache.hpp"
#include "shard/tile_store.hpp"
#include "sink/severity_tile_store.hpp"
#include "util/parallel.hpp"

namespace tiv::core {

/// Input-cache bytes the band-pair driver can pin at once on `threads`
/// pool workers: two witness tiles each (a worker releases its d_ac tile
/// before the witness walk). Pinned tiles cannot be evicted, so a
/// TileCache budget at or above this floor keeps stats().peak_bytes within
/// the budget for every streamed build, repair and rebuild below.
std::size_t pinned_input_floor(std::uint32_t tile_dim,
                               std::size_t threads = parallel_thread_count());

/// All-edges severity matrix computed by streaming tiles of `store` through
/// `cache`. Bit-identical to TivAnalyzer::all_severities on the matrix the
/// store serialized. The band-pair loop is dynamically scheduled over the
/// parallel pool; each worker reads the tiles it needs on demand through
/// `cache`.
SeverityMatrix all_severities_streamed(const shard::TileStore& store,
                                       shard::TileCache& cache);

/// All-edges severity streamed from `store` *into* `sink` — the fully
/// out-of-core form: neither the delay matrix nor the severity result is
/// ever materialized in memory (working set = cache budget + one O(tile^2)
/// buffer per pool worker). `sink` must be writable with the same n and
/// tile_dim as `store`. Every stored entry is bit-identical to the
/// corresponding all_severities / all_severities_streamed cell; entries the
/// in-memory path never sets (unmeasured pairs, the diagonal, padding) are
/// 0.0f.
void all_severities_to_sink(const shard::TileStore& store,
                            shard::TileCache& cache,
                            sink::SeverityTileStore& sink);

/// Accounting for one repair_severities_to_sink call.
struct SinkRepairStats {
  std::size_t tiles_committed = 0;   ///< sink tiles rewritten in place
  std::size_t edges_recomputed = 0;  ///< dirty pairs re-evaluated (incl.
                                     ///< pairs reset to 0 on a loss)
};

/// Incremental form of all_severities_to_sink: recomputes exactly the
/// edges incident to `dirty_hosts` (ascending, distinct — what
/// DelayStream::commit_epoch returns) through the band-pair streaming
/// driver and rewrites only the sink tiles containing such edges. `store`
/// must already hold the post-epoch matrix (TileStore::repack_tile on the
/// dirty bands, with the cache invalidated — src/stream/shard_stream owns
/// that sequencing). Severities the in-memory
/// IncrementalSeverity::apply_epoch would leave untouched are untouched
/// here too, so the sink stays bit-identical to a from-scratch
/// all_severities of the mutated matrix after every epoch. Throws
/// std::invalid_argument for a dirty host id >= n.
SinkRepairStats repair_severities_to_sink(
    const shard::TileStore& store, shard::TileCache& cache,
    sink::SeverityTileStore& sink, std::span<const HostId> dirty_hosts);

/// Recomputes sink tile (bi, bj), bi <= bj, from scratch through the
/// band-pair streaming driver and commits it — the one-tile form of
/// all_severities_to_sink, bit-identical to the tile a full build would
/// write (same kernels, same ascending-witness-band order). This is the
/// self-healing primitive of the out-of-core engine: when a sink tile
/// fails its checksum, its band pair is rebuilt from the (trusted) input
/// store instead of abandoning the run. Runs on the calling thread.
void rebuild_sink_tile(const shard::TileStore& store, shard::TileCache& cache,
                       sink::SeverityTileStore& sink, std::uint32_t bi,
                       std::uint32_t bj);

/// Recomputes every sink tile in a row or column of `bands` (each below
/// tiles_per_side) from scratch and commits it: the dirty-pair driver with
/// every host of those bands dirty, on the pool. Under that selection each
/// selected tile is covered completely, so tiles are composed from zeros
/// without reading the committed (possibly torn) ones and are bit-identical
/// to what a full build writes. Crash recovery's replay of a torn epoch.
/// Throws std::invalid_argument for a band out of range.
void rebuild_sink_bands(const shard::TileStore& store,
                        shard::TileCache& cache,
                        sink::SeverityTileStore& sink,
                        std::span<const std::uint32_t> bands);

/// Exact violating-triangle fraction, streamed. Matches
/// TivAnalyzer::violating_triangle_fraction(0) bit for bit (the reduction
/// is integer counting; the final division is the same arithmetic).
double violating_triangle_fraction_streamed(const shard::TileStore& store,
                                            shard::TileCache& cache);

}  // namespace tiv::core
