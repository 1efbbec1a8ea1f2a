// Tests for the out-of-core shard subsystem: TileStore round-tripping the
// packed-view representation, TileCache budget/eviction accounting, and the
// band-pair driver's bit-identical equivalence between its storage and
// in-memory sources — swept over n (0 to 133), tile sizes that do and do
// not divide N, densities and thread counts, and under a tiny cache budget
// that forces eviction.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/shard_severity.hpp"
#include "core/severity.hpp"
#include "delayspace/delay_matrix.hpp"
#include "matrix_test_utils.hpp"
#include "obs/metrics.hpp"
#include "shard/tile_cache.hpp"
#include "shard/tile_store.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace tiv::core {
namespace {

using delayspace::DelayMatrix;
using delayspace::DelayMatrixView;
using delayspace::HostId;
using shard::TileCache;
using shard::TileStore;

using tiv::test::random_matrix;

/// Unique scratch path; removed by the fixture-less tests themselves.
std::string scratch_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("tiv_test_" + tag + "_" + std::to_string(::testing::UnitTest::
                                                        GetInstance()
                                                            ->random_seed()) +
           ".tiles"))
      .string();
}

void expect_streamed_matches_in_memory(const DelayMatrix& m,
                                       std::uint32_t tile_dim,
                                       std::size_t budget_bytes,
                                       bool expect_evictions) {
  const std::string path = scratch_path(
      "equiv_n" + std::to_string(m.size()) + "_t" + std::to_string(tile_dim));
  TileStore::write_matrix(path, m, tile_dim);
  const TileStore store = TileStore::open(path);
  TileCache cache(store, budget_bytes);

  const SeverityMatrix streamed = all_severities_streamed(store, cache);
  const SeverityMatrix in_memory = TivAnalyzer(m).all_severities();
  const HostId n = m.size();
  for (HostId i = 0; i < n; ++i) {
    for (HostId j = i + 1; j < n; ++j) {
      // Bit-for-bit: the streamed driver feeds the same accumulator lanes
      // in the same order as the monolithic row scan.
      EXPECT_EQ(streamed.at(i, j), in_memory.at(i, j))
          << "edge (" << i << ", " << j << ")";
    }
  }

  const double streamed_frac = violating_triangle_fraction_streamed(
      store, cache);
  const double in_memory_frac = TivAnalyzer(m).violating_triangle_fraction();
  EXPECT_EQ(streamed_frac, in_memory_frac);

  const auto stats = cache.stats();
  if (n >= 2) EXPECT_GT(stats.misses, 0u);  // n < 2 has no pair to stream
  // Budgets in these tests always dominate the pinned working set, so the
  // accounting invariant tightens to a hard bound.
  EXPECT_LE(stats.peak_bytes, budget_bytes);
  if (expect_evictions) EXPECT_GT(stats.evictions, 0u);
  std::filesystem::remove(path);
}

TEST(TileStore, RoundTripsPackedViewBlocks) {
  const HostId n = 37;  // does not divide the 16-wide tile
  const DelayMatrix m = random_matrix(n, 0.25, 5);
  const std::string path = scratch_path("roundtrip");
  TileStore::write_matrix(path, m, 16);
  const TileStore store = TileStore::open(path);
  EXPECT_EQ(store.size(), n);
  EXPECT_EQ(store.tile_dim(), 16u);
  EXPECT_EQ(store.tiles_per_side(), 3u);
  EXPECT_EQ(store.band_rows(0), 16u);
  EXPECT_EQ(store.band_rows(2), 5u);

  const DelayMatrixView view(m);
  std::vector<float> payload(store.payload_floats());
  std::vector<std::uint64_t> masks(store.mask_words());
  for (std::uint32_t tr = 0; tr < store.tiles_per_side(); ++tr) {
    for (std::uint32_t tc = 0; tc < store.tiles_per_side(); ++tc) {
      store.read_tile(tr, tc, payload.data(), masks.data());
      for (std::uint32_t lr = 0; lr < 16; ++lr) {
        const HostId i = tr * 16 + lr;
        for (std::uint32_t lb = 0; lb < 16; ++lb) {
          const HostId b = tc * 16 + lb;
          const float got = payload[lr * 16 + lb];
          const bool mask_bit = (masks[lr * store.mask_words_per_row() +
                                       (lb >> 6)] >>
                                 (lb & 63)) &
                                1;
          if (i >= n || b >= n) {
            // Edge-tile padding: masked payload, zero mask bits.
            EXPECT_EQ(got, DelayMatrixView::kMaskedDelay);
            EXPECT_FALSE(mask_bit);
          } else {
            EXPECT_EQ(got, view.row(i)[b]) << "(" << i << ", " << b << ")";
            EXPECT_EQ(mask_bit, m.has(i, b)) << "(" << i << ", " << b << ")";
          }
        }
      }
    }
  }
  std::filesystem::remove(path);
}

TEST(TileStore, RejectsBadTileDim) {
  const DelayMatrix m = random_matrix(8, 0.0, 6);
  EXPECT_THROW(TileStore::write_matrix(scratch_path("bad"), m, 0),
               std::invalid_argument);
  EXPECT_THROW(TileStore::write_matrix(scratch_path("bad"), m, 24),
               std::invalid_argument);
}

TEST(TileStore, OpenRejectsMissingAndMalformed) {
  EXPECT_THROW(TileStore::open("/nonexistent/tiv_tiles"), std::runtime_error);
  const std::string path = scratch_path("garbage");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a tile store", f);
    std::fclose(f);
  }
  EXPECT_THROW(TileStore::open(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(ShardSeverity, StreamedMatchesInMemoryDense) {
  // 96 divides the 16- and 32-wide grids; generous budget (no eviction
  // pressure beyond capacity).
  expect_streamed_matches_in_memory(random_matrix(96, 0.0, 11), 32,
                                    1u << 22, false);
}

TEST(ShardSeverity, StreamedMatchesInMemoryThirtyPercentMissing) {
  expect_streamed_matches_in_memory(random_matrix(96, 0.3, 12), 32,
                                    1u << 22, false);
}

TEST(ShardSeverity, TileSizeNotDividingN) {
  // 133 = 8*16 + 5: ragged last band in both 16- and 48-wide grids.
  expect_streamed_matches_in_memory(random_matrix(133, 0.3, 13), 16,
                                    1u << 22, false);
  expect_streamed_matches_in_memory(random_matrix(133, 0.2, 14), 48,
                                    1u << 22, false);
}

TEST(ShardSeverity, TinyBudgetForcesEvictionAndStaysWithinIt) {
  // 8x8 bands of 16-wide tiles; a budget of 8 tiles cannot hold the 36
  // upper-triangle band pairs' worth of working set, so the LRU must evict
  // — and the accounting must keep peak bytes within the budget.
  set_parallel_thread_count(2);
  const HostId n = 128;
  const std::uint32_t tile_dim = 16;
  expect_streamed_matches_in_memory(random_matrix(n, 0.1, 15), tile_dim,
                                    8 * TileStore::tile_bytes_for(tile_dim),
                                    true);
  set_parallel_thread_count(0);
}

TEST(ShardSeverity, StreamedMatchesInMemorySweep) {
  // The one driver over its two sources: every shape class — empty and
  // single-host stores, n < 8, ragged last bands, one and several tiles,
  // dense to 90% missing — on one and four threads.
  for (const std::size_t threads : {1u, 4u}) {
    set_parallel_thread_count(threads);
    for (const HostId n : {0u, 1u, 2u, 3u, 7u, 17u, 65u, 133u}) {
      for (const std::uint32_t tile_dim : {16u, 32u, 48u}) {
        for (const double missing : {0.0, 0.3, 0.9}) {
          SCOPED_TRACE(::testing::Message()
                       << "threads=" << threads << " n=" << n
                       << " tile=" << tile_dim << " missing=" << missing);
          expect_streamed_matches_in_memory(
              random_matrix(n, missing, 100 + n), tile_dim, 1u << 22, false);
        }
      }
    }
  }
  set_parallel_thread_count(0);
}

TEST(ShardSeverity, TileReadFailurePropagatesAsException) {
  // Tile I/O runs on pool workers, where an escaped exception would
  // terminate the process; the band-pair driver must capture it and
  // rethrow on the calling thread as a catchable error.
  set_parallel_thread_count(2);
  const DelayMatrix m = random_matrix(96, 0.1, 20);
  const std::string path = scratch_path("truncated");
  TileStore::write_matrix(path, m, 16);
  const TileStore store = TileStore::open(path);
  std::filesystem::resize_file(path, 512);  // header survives, tiles gone
  TileCache cache(store, 1u << 20);
  EXPECT_THROW(all_severities_streamed(store, cache), std::runtime_error);
  std::filesystem::remove(path);
  set_parallel_thread_count(0);
}

TEST(TileStore, RepackTileIsByteIdenticalToFreshBuild) {
  // Mutate a few edges (values and missing toggles), repack exactly the
  // dirty hosts' row-band tiles in place, and demand the whole store file
  // equals a from-scratch write_matrix of the mutated matrix byte for byte
  // — tile payloads, masks, and the checksum table included.
  DelayMatrix m = random_matrix(70, 0.3, 21);  // 70 = 4*16 + 6: ragged band
  const std::string path = scratch_path("repack");
  TileStore::write_matrix(path, m, 16);

  Rng rng(99);
  std::vector<std::uint8_t> band_dirty((70 + 15) / 16, 0);
  for (int u = 0; u < 8; ++u) {
    const auto a = static_cast<HostId>(rng.uniform_index(70));
    const auto b = static_cast<HostId>(rng.uniform_index(70));
    if (a == b) continue;
    if (rng.bernoulli(0.3)) {
      m.set_missing(a, b);
    } else {
      m.set(a, b, static_cast<float>(rng.uniform(1.0, 400.0)));
    }
    band_dirty[a / 16] = 1;
    band_dirty[b / 16] = 1;
  }
  {
    auto store = TileStore::open(path, /*writable=*/true);
    EXPECT_TRUE(store.writable());
    for (std::uint32_t r = 0; r < store.tiles_per_side(); ++r) {
      if (!band_dirty[r]) continue;
      for (std::uint32_t c = 0; c < store.tiles_per_side(); ++c) {
        store.repack_tile(m, r, c);
      }
    }
  }
  const std::string fresh_path = scratch_path("repack_fresh");
  TileStore::write_matrix(fresh_path, m, 16);
  std::ifstream repacked(path, std::ios::binary);
  std::ifstream fresh(fresh_path, std::ios::binary);
  const std::vector<char> got((std::istreambuf_iterator<char>(repacked)),
                              std::istreambuf_iterator<char>());
  const std::vector<char> want((std::istreambuf_iterator<char>(fresh)),
                               std::istreambuf_iterator<char>());
  EXPECT_EQ(got, want);
  std::filesystem::remove(path);
  std::filesystem::remove(fresh_path);
}

TEST(TileStore, OverwrittenBytesAfterHeaderHealByRepackingEveryTile) {
  // Past the 20-byte header the file holds only checksums and tiles, and
  // every offset is computed from (n, tile_dim): no stored structure can
  // misdirect a write. So whatever 8 bytes after the header are
  // overwritten, repacking every tile through a writable open restores a
  // store that reads back byte-identical to a fresh write_matrix.
  const DelayMatrix m = random_matrix(37, 0.25, 24);  // 3 x 3 tiles of 16
  const std::string fresh_path = scratch_path("overwrite_fresh");
  TileStore::write_matrix(fresh_path, m, 16);
  auto read_file = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  };
  auto read_all_tiles = [](const TileStore& store) {
    std::vector<float> payload(store.payload_floats());
    std::vector<std::uint64_t> masks(store.mask_words());
    std::vector<float> out_payload;
    std::vector<std::uint64_t> out_masks;
    for (std::uint32_t r = 0; r < store.tiles_per_side(); ++r) {
      for (std::uint32_t c = 0; c < store.tiles_per_side(); ++c) {
        store.read_tile(r, c, payload.data(), masks.data());
        out_payload.insert(out_payload.end(), payload.begin(), payload.end());
        out_masks.insert(out_masks.end(), masks.begin(), masks.end());
      }
    }
    return std::make_pair(out_payload, out_masks);
  };
  const std::vector<char> fresh = read_file(fresh_path);
  const auto want = read_all_tiles(TileStore::open(fresh_path));

  constexpr std::size_t kHeaderBytes = 20;
  const std::string path = scratch_path("overwrite");
  for (std::size_t off = kHeaderBytes; off + 8 <= fresh.size(); ++off) {
    std::vector<char> bytes = fresh;
    for (std::size_t k = 0; k < 8; ++k) bytes[off + k] ^= 0x5a;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    {
      auto store = TileStore::open(path, /*writable=*/true);
      for (std::uint32_t r = 0; r < store.tiles_per_side(); ++r) {
        for (std::uint32_t c = 0; c < store.tiles_per_side(); ++c) {
          store.repack_tile(m, r, c);
        }
      }
    }
    ASSERT_EQ(read_all_tiles(TileStore::open(path)), want)
        << "8 bytes overwritten at offset " << off;
  }
  std::filesystem::remove(path);
  std::filesystem::remove(fresh_path);
}

TEST(TileStore, RepackOnReadOnlyStoreThrows) {
  const DelayMatrix m = random_matrix(16, 0.0, 22);
  const std::string path = scratch_path("repack_ro");
  TileStore::write_matrix(path, m, 16);
  auto store = TileStore::open(path);
  EXPECT_THROW(store.repack_tile(m, 0, 0), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TileStore, CorruptTileIsRejectedLoudly) {
  const DelayMatrix m = random_matrix(37, 0.2, 23);
  const std::string path = scratch_path("checksum");
  TileStore::write_matrix(path, m, 16);
  // Flip one byte inside the last tile's payload.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(-64, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-64, std::ios::end);
    byte ^= 0x5a;
    f.write(&byte, 1);
  }
  const TileStore store = TileStore::open(path);
  std::vector<float> payload(store.payload_floats());
  std::vector<std::uint64_t> masks(store.mask_words());
  const std::uint32_t last = store.tiles_per_side() - 1;
  EXPECT_THROW(store.read_tile(last, last, payload.data(), masks.data()),
               shard::CorruptTileError);
  // CorruptTileError is still a runtime_error for coarse-grained handlers,
  // and other tiles stay readable.
  EXPECT_THROW(store.read_tile(last, last, payload.data(), masks.data()),
               std::runtime_error);
  store.read_tile(0, 0, payload.data(), masks.data());
  std::filesystem::remove(path);
}

TEST(TileCache, InvalidateDropsResidentTileAndRereadsRepack) {
  DelayMatrix m = random_matrix(32, 0.0, 24);
  const std::string path = scratch_path("invalidate");
  TileStore::write_matrix(path, m, 16);
  auto store = TileStore::open(path, /*writable=*/true);
  TileCache cache(store, 1u << 20);

  { const auto tile = cache.acquire(0, 1); }  // load, then unpin
  m.set(1, 20, 123.0f);  // row 1 (band 0), column 20 (band 1): tile (0, 1)
  store.repack_tile(m, 0, 1);
  cache.invalidate(0, 1);

  auto stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.current_bytes, 0u);
  cache.invalidate(0, 1);  // absent: a no-op
  EXPECT_EQ(cache.stats().invalidations, 1u);

  const auto tile = cache.acquire(0, 1);  // re-read sees the repacked bytes
  EXPECT_EQ(tile->row(1)[4], 123.0f);     // local (1, 20-16)
  EXPECT_EQ(cache.stats().misses, 2u);
  std::filesystem::remove(path);
}

TEST(TileCache, CountsHitsMissesAndReusesResidentTiles) {
  const DelayMatrix m = random_matrix(64, 0.1, 17);
  const std::string path = scratch_path("cache");
  TileStore::write_matrix(path, m, 16);
  const TileStore store = TileStore::open(path);
  TileCache cache(store, 1u << 20);

  const auto t1 = cache.acquire(0, 0);
  const auto t2 = cache.acquire(0, 0);
  EXPECT_EQ(t1.get(), t2.get());  // same resident tile, no duplicate load
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.current_bytes, store.tile_bytes());

  cache.acquire(1, 2);
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.current_bytes, 2 * store.tile_bytes());
  EXPECT_EQ(stats.peak_bytes, 2 * store.tile_bytes());
  std::filesystem::remove(path);
}

TEST(TileCache, EvictsLeastRecentlyUsedButNeverPinned) {
  const DelayMatrix m = random_matrix(64, 0.1, 18);
  const std::string path = scratch_path("evict");
  TileStore::write_matrix(path, m, 16);
  const TileStore store = TileStore::open(path);
  // Room for exactly two resident tiles.
  TileCache cache(store, 2 * store.tile_bytes());

  auto pinned = cache.acquire(0, 0);
  cache.acquire(0, 1);          // unpinned once the ref drops
  cache.acquire(0, 2);          // must evict (0, 1), not the pinned (0, 0)
  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.current_bytes, cache.budget_bytes());

  const auto again = cache.acquire(0, 0);
  EXPECT_EQ(again.get(), pinned.get());  // survived eviction: was pinned
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_LE(stats.peak_bytes, cache.budget_bytes());
  std::filesystem::remove(path);
}

TEST(ShardSeverity, WholeStoreBudgetReadsEachTileOnce) {
  // With room for every tile, a streamed build reads each tile exactly
  // once, on demand by the worker that needs it: misses == tiles and read
  // bytes == the store's tile bytes. Any speculative reader would show up
  // here as extra reads.
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    set_parallel_thread_count(threads);
    const DelayMatrix m = random_matrix(100, 0.2, 19);
    const std::string path = scratch_path("whole_store");
    TileStore::write_matrix(path, m, 16);
    const TileStore store = TileStore::open(path);
    const std::size_t tiles =
        std::size_t{store.tiles_per_side()} * store.tiles_per_side();
    TileCache cache(store, tiles * store.tile_bytes());

    auto& registry = obs::MetricsRegistry::instance();
    const obs::MetricsSnapshot before = registry.snapshot();
    all_severities_streamed(store, cache);
    const obs::MetricsSnapshot read = registry.snapshot().delta_since(before);
    EXPECT_EQ(cache.stats().misses, tiles);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(read.counters.at("shard.input.reads"), tiles);
    EXPECT_EQ(read.counters.at("shard.input.read_bytes"),
              tiles * store.tile_bytes());
    std::filesystem::remove(path);
  }
  set_parallel_thread_count(0);
}

}  // namespace
}  // namespace tiv::core
