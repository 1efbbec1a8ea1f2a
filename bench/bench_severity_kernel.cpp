// Severity-engine kernel benchmark: scalar reference vs. the blocked,
// branch-free kernel, across matrix sizes and thread counts, plus the
// count-only twin of the blocked scan as an on-machine yardstick.
//
// Emits a BenchReport JSON array (meta envelope first) so future PRs can
// track the trajectory:
//   [{"section":"meta","schema_version":1,"bench":"bench_severity_kernel",...},
//    {"section":"kernel","n":1024,"threads":1,"missing_fraction":0.1,
//     "scalar_ms":..., "blocked_ms":..., "count_ms":...,
//     "ratio_over_count":..., "speedup":..., "max_rel_err":...,
//     "witness_ops":..., "bytes_touched":..., "gops_per_s":..., "gb_per_s":...,
//     "violating_block_share":...},
//    ...]
//
// The meta record's "ratio_kernel" names the witness_ratio_accumulate this
// build compiled: "avx512_block_sparse" or "dense" (no AVX-512, e.g. a
// -DTIV_NATIVE_ARCH=OFF build), so a run on a runner without AVX-512 shows
// up as such instead of passing as a measurement of the sparse kernel.
//
// count_ms times the exact violating_triangle_fraction(0): the same tiled
// pair loop over the same packed view as blocked_ms (all_severities), with
// the same row traffic, but 32-bit integer count lanes in place of the
// per-witness ratio term. ratio_over_count = blocked_ms / count_ms is
// therefore what the ratio term costs beyond the memory-bound scan. Both
// timings come from the same process on the same machine, so the ratio
// carries across hardware where absolute milliseconds do not; it is the
// gate that keeps the kernel off the divider.
//
// The roofline fields are algorithmic, not cache-measured: the severity
// kernel examines every witness k for every pair (i,j), so
//   witness_ops   = C(n,2) * n        (pair-witness relaxations)
//   bytes_touched = witness_ops * 8   (two float loads per relaxation)
// and gb_per_s / gops_per_s divide those by the measured blocked_ms. They
// are nominal counts: the block-sparse kernel compares every witness but
// divides only in the 16-column blocks that hold a violator, and
// violating_block_share (computed outside the timed region) is the share
// of measured pairs' scanned blocks that do.
//
// Flags:
//   --quick        n in {256, 512} only (CI smoke run)
//   --threads=T    benchmark only thread count T (default: 1, 2, 4, hw)
//   --missing=F    missing-entry fraction of the synthetic matrix (default
//                  0.1; the mask trick means it barely matters)
//   --seed=S       RNG seed for the synthetic matrix
//
// The matrix is synthetic uniform-random RTTs rather than a generated delay
// space, which keeps the 2048-host case cheap to set up. Kernel cost
// depends on n, the missing pattern and how many witnesses violate; the
// uniform matrix is the dense case for the block-sparse kernel (about two
// thirds of its blocks hold a violator at 10% missing, against about a
// third on the ds2 delay space), so it bounds the kernel's cost from above.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/severity.hpp"
#include "core/witness_kernels.hpp"
#include "delayspace/delay_matrix.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using tiv::core::SeverityMatrix;
using tiv::core::TivAnalyzer;
using tiv::delayspace::DelayMatrix;
using tiv::delayspace::DelayMatrixView;
using tiv::delayspace::HostId;

using tiv::bench::random_matrix;
using tiv::bench::repeat_ms;
using tiv::bench::repeat_pair_ms;
using tiv::bench::Timing;

double max_rel_err(const SeverityMatrix& got, const SeverityMatrix& want) {
  double worst = 0.0;
  const HostId n = got.size();
  for (HostId i = 0; i < n; ++i) {
    for (HostId j = i + 1; j < n; ++j) {
      const double g = got.at(i, j);
      const double w = want.at(i, j);
      const double scale = std::max({1.0, std::abs(g), std::abs(w)});
      worst = std::max(worst, std::abs(g - w) / scale);
    }
  }
  return worst;
}

/// Share of the 16-column witness blocks the ratio kernel scans for the
/// measured pairs (a < c) of `view` that hold a violator, i.e. in which
/// the block-sparse kernel divides.
double violating_block_share(const DelayMatrixView& view) {
  const HostId n = view.size();
  const std::size_t blocks = view.stride() / tiv::core::kWitnessBlock;
  std::atomic<std::uint64_t> scanned{0};
  std::atomic<std::uint64_t> violating{0};
  tiv::parallel_for(n, [&](std::size_t a) {
    const float* ra = view.row(static_cast<HostId>(a));
    std::uint64_t s = 0;
    std::uint64_t v = 0;
    for (HostId c = static_cast<HostId>(a) + 1; c < n; ++c) {
      const float dac = ra[c];
      if (dac >= DelayMatrixView::kMaskedDelay) continue;
      const float* rc = view.row(c);
      s += blocks;
      for (std::size_t k = 0; k < blocks; ++k) {
        bool any = false;
        for (std::size_t b = k * tiv::core::kWitnessBlock;
             b < (k + 1) * tiv::core::kWitnessBlock; ++b) {
          const float detour = ra[b] + rc[b];
          any |= (detour < dac) & (detour > 0.0f);
        }
        v += any ? 1 : 0;
      }
    }
    scanned.fetch_add(s, std::memory_order_relaxed);
    violating.fetch_add(v, std::memory_order_relaxed);
  });
  return scanned.load() == 0 ? 0.0
                             : static_cast<double>(violating.load()) /
                                   static_cast<double>(scanned.load());
}

}  // namespace

int bench_main(int argc, char** argv) {
  const tiv::Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  const auto seed = flags.get_uint<std::uint64_t>("seed", 7);
  const double missing = flags.get_double("missing", 0.1);
  const auto only_threads = flags.get_uint<std::size_t>("threads", 0);
  tiv::reject_unknown_flags(flags);

  std::vector<HostId> sizes =
      quick ? std::vector<HostId>{256, 512}
            : std::vector<HostId>{256, 512, 1024, 2048};
  std::vector<std::size_t> thread_counts;
  if (only_threads > 0) {
    thread_counts.push_back(only_threads);
  } else {
    thread_counts = {1, 2, 4};
    const std::size_t hw = std::thread::hardware_concurrency();
    if (hw > 4) thread_counts.push_back(hw);
  }

  tiv::bench::BenchConfig cfg;
  cfg.seed = seed;
  tiv::bench::BenchReport json(std::cout, "bench_severity_kernel");
  json.meta(cfg)
      .field("missing_fraction", missing, 3)
      .field_bool("quick", quick)
      .field("ratio_kernel", std::string(tiv::core::kWitnessRatioKernel))
      .field("max_n", sizes.back());
  for (const HostId n : sizes) {
    const DelayMatrix m = random_matrix(n, missing, seed);
    const TivAnalyzer analyzer(m);
    const int reps = n >= 2048 ? 2 : 3;
    tiv::set_parallel_thread_count(0);  // untimed: every core
    const double block_share = violating_block_share(DelayMatrixView(m));

    // Scalar baseline is always single-threaded: it is the seed kernel's
    // per-core cost, the denominator of every speedup below.
    tiv::set_parallel_thread_count(1);
    SeverityMatrix ref;
    const Timing scalar =
        repeat_ms(reps, [&] { ref = analyzer.all_severities_reference(); });

    // Algorithmic roofline: every pair (i,j) relaxes through every
    // witness k, two float loads per relaxation.
    const double witness_ops = static_cast<double>(n) *
                               static_cast<double>(n - 1) / 2.0 *
                               static_cast<double>(n);
    const double bytes_touched = witness_ops * 8.0;

    for (const std::size_t threads : thread_counts) {
      tiv::set_parallel_thread_count(threads);
      SeverityMatrix blocked;
      const auto [t, count] = repeat_pair_ms(
          reps, [&] { blocked = analyzer.all_severities(); },
          [&] { (void)analyzer.violating_triangle_fraction(0); });
      const double err = max_rel_err(blocked, ref);
      const double secs = t.best_ms / 1e3;
      json.object()
          .field("section", std::string("kernel"))
          .field("n", n)
          .field("threads", threads)
          .field("missing_fraction", missing, 3)
          .field("reps", reps)
          .field("scalar_ms", scalar.best_ms, 3)
          .field("scalar_ms_spread", scalar.spread, 3)
          .field("blocked_ms", t.best_ms, 3)
          .field("blocked_ms_mean", t.mean_ms, 3)
          .field("blocked_ms_spread", t.spread, 3)
          .field("count_ms", count.best_ms, 3)
          .field("ratio_over_count",
                 count.best_ms > 0 ? t.best_ms / count.best_ms : 0.0, 3)
          .field("speedup", scalar.best_ms / t.best_ms, 3)
          .field_sig("max_rel_err", err, 3)
          .field("witness_ops", static_cast<std::uint64_t>(witness_ops))
          .field("bytes_touched", static_cast<std::uint64_t>(bytes_touched))
          .field_sig("gops_per_s", secs > 0 ? witness_ops / secs / 1e9 : 0.0,
                     4)
          .field_sig("gb_per_s", secs > 0 ? bytes_touched / secs / 1e9 : 0.0,
                     4)
          .field("violating_block_share", block_share, 4);
    }
  }
  tiv::set_parallel_thread_count(0);
  return 0;
}

int main(int argc, char** argv) {
  return tiv::run_main(bench_main, argc, argv);
}
