// Out-of-core severity bench: the tiled TileStore/TileCache path vs the
// in-memory kernel.
//
// Two phases, one JSON record each (bench_common JsonArrayWriter):
//
//   equivalence  an N that fits both paths comfortably; asserts the
//                streamed severity matrix is bit-for-bit identical to
//                TivAnalyzer::all_severities and reports both timings.
//   out_of_core  an N whose packed view exceeds the cache budget; the
//                streamed path must complete with peak tile-cache bytes
//                <= budget. Reports cache hit rate / evictions — the
//                numbers quoted in docs/PERFORMANCE.md.
//
// Both phases force streaming (the budget is below the packed-view bytes),
// so the cache is genuinely exercised: without eviction the equivalence
// phase would just be a warm in-memory copy.
//
// Flags:
//   --quick        reduced sizes (CI smoke run)
//   --n=N          out-of-core phase host count (default 1024; 640 quick)
//   --tile=T       tile edge, multiple of 16 (default 64)
//   --budget-kb=B  tile-cache budget in KiB (default 512)
//   --missing=F    missing-entry fraction (default 0.1)
//   --threads=T    thread count (default: hardware)
//   --seed=S       RNG seed for the synthetic matrix
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/shard_severity.hpp"
#include "core/severity.hpp"
#include "delayspace/delay_matrix.hpp"
#include "shard/tile_cache.hpp"
#include "shard/tile_store.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using tiv::core::SeverityMatrix;
using tiv::core::TivAnalyzer;
using tiv::delayspace::DelayMatrix;
using tiv::delayspace::DelayMatrixView;
using tiv::delayspace::HostId;
using tiv::shard::TileCache;
using tiv::shard::TileStore;

using tiv::bench::random_matrix;
using tiv::bench::time_ms;

std::size_t bitwise_mismatches(const SeverityMatrix& a,
                               const SeverityMatrix& b) {
  std::size_t mismatches = 0;
  for (HostId i = 0; i < a.size(); ++i) {
    for (HostId j = i + 1; j < a.size(); ++j) {
      mismatches += a.at(i, j) != b.at(i, j) ? 1 : 0;
    }
  }
  return mismatches;
}

struct PhaseParams {
  std::string name;
  HostId n;
  bool compare_in_memory;
};

/// Returns false when an acceptance property fails (budget overshoot or a
/// bitwise mismatch) so CI's smoke run turns red instead of just logging.
bool run_phase(tiv::bench::JsonArrayWriter& json, const PhaseParams& phase,
               std::uint32_t tile_dim, std::size_t budget_bytes,
               double missing, std::uint64_t seed) {
  const DelayMatrix m = random_matrix(phase.n, missing, seed);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bench_shard_" + std::to_string(::getpid()) + "_" + phase.name +
        ".tiles"))
          .string();

  const double write_ms =
      time_ms([&] { TileStore::write_matrix(path, m, tile_dim); });
  const TileStore store = TileStore::open(path);
  TileCache cache(store, budget_bytes);

  SeverityMatrix streamed;
  const double streamed_ms = time_ms(
      [&] { streamed = tiv::core::all_severities_streamed(store, cache); });
  const auto stats = cache.stats();
  bool ok = stats.peak_bytes <= budget_bytes;

  auto record = json.object();
  record.field("section", std::string("shard"))
      .field("phase", phase.name)
      .field("n", phase.n)
      .field("tile_dim", tile_dim)
      .field("budget_bytes", budget_bytes)
      .field("view_bytes", DelayMatrixView::bytes_for(phase.n))
      .field("store_bytes",
             static_cast<std::uint64_t>(std::filesystem::file_size(path)))
      .field("write_ms", write_ms, 3)
      .field("streamed_ms", streamed_ms, 3)
      .field("tile_hits", stats.hits)
      .field("tile_misses", stats.misses)
      .field("evictions", stats.evictions)
      .field("peak_cache_bytes", stats.peak_bytes)
      .field_bool("peak_within_budget", stats.peak_bytes <= budget_bytes)
      .field("hit_rate", stats.hit_rate(), 4)
      .field("prefetch_drops", stats.prefetch_drops);
  if (phase.compare_in_memory) {
    SeverityMatrix in_memory;
    const double in_memory_ms = time_ms(
        [&] { in_memory = TivAnalyzer(m).all_severities(); });
    const std::size_t mismatches = bitwise_mismatches(streamed, in_memory);
    record.field("in_memory_ms", in_memory_ms, 3)
        .field("bitwise_mismatches", mismatches)
        .field_bool("bitwise_equal", mismatches == 0);
    ok = ok && mismatches == 0;
  }

  std::filesystem::remove(path);
  return ok;
}

}  // namespace

int bench_main(int argc, char** argv) {
  const tiv::Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  const auto seed = flags.get_uint<std::uint64_t>("seed", 7);
  const double missing = flags.get_double("missing", 0.1);
  const auto tile_dim = flags.get_uint<std::uint32_t>("tile", 64);
  const std::size_t budget_flag_bytes =
      flags.get_uint<std::size_t>("budget-kb", 512) * 1024;
  const auto n_big = flags.get_uint<HostId>("n", quick ? 640 : 1024);
  const auto threads = flags.get_uint<std::size_t>("threads", 0);
  tiv::reject_unknown_flags(flags);
  if (threads > 0) {
    tiv::set_parallel_thread_count(threads);
  }

  // Floor the budget at the pinned working set: each pool worker pins up
  // to 3 tiles (d_ac + two witness tiles) and the prefetcher one more, and
  // pinned tiles are never evictable — on a many-core machine the default
  // 512 KiB would otherwise be overshot by pins alone and the peak check
  // would fail with nothing wrong. The floor scales with --threads/--tile,
  // and the reported budget_bytes is the effective value.
  const std::uint32_t words_per_row = (tile_dim + 63) / 64;
  const std::size_t tile_bytes =
      static_cast<std::size_t>(tile_dim) * tile_dim * sizeof(float) +
      static_cast<std::size_t>(tile_dim) * words_per_row *
          sizeof(std::uint64_t);
  const std::size_t pinned_floor =
      (3 * tiv::parallel_thread_count() + 2) * tile_bytes;
  const std::size_t budget_bytes = std::max(budget_flag_bytes, pinned_floor);

  // The equivalence N still exceeds the default budget (packed view of 384
  // hosts is ~600 KiB) so the streamed path under test is the evicting one.
  const HostId n_eq = quick ? 384 : 448;

  bool ok = true;
  {
    tiv::bench::BenchConfig bench_cfg;
    bench_cfg.hosts = n_big;
    bench_cfg.seed = seed;
    tiv::bench::BenchReport json(std::cout, "bench_shard_severity");
    json.meta(bench_cfg)
        .field("tile_dim", tile_dim)
        .field("budget_bytes", budget_bytes)
        .field("missing_fraction", missing)
        .field("quick", quick);
    ok &= run_phase(json, {"equivalence", n_eq, true}, tile_dim,
                    budget_bytes, missing, seed);
    ok &= run_phase(json, {"out_of_core", n_big, false}, tile_dim,
                    budget_bytes, missing, seed);
  }
  tiv::set_parallel_thread_count(0);
  return ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
