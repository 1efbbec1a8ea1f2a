// The one band-pair severity driver: TivAnalyzer::all_severities and the
// exact violating_triangle_fraction, their streamed forms, the sink drivers
// and stream::IncrementalSeverity::apply_epoch all instantiate
// run_band_pairs.
//
// Hosts are cut into bands of band_dim() rows; unordered band pairs
// (I, J), I <= J, are dynamically scheduled, row-major in the band triangle
// so consecutive pairs share band I. Per band pair the driver selects the
// pairs (a < c), split by d_ac into measured and unmeasured; walks witness
// bands K in ascending column order, feeding each measured pair's kernel;
// and calls the finish. The strategies are template parameters, so nothing
// virtual runs in the lane loop:
//   Source     ViewSource (in-memory view: 16-row bands, ONE witness band
//              spanning the padded stride, no I/O) or shard_severity.cpp's
//              StoreSource (TileStore + TileCache, tile_dim bands, tiles
//              read on demand by the worker that needs them).
//   Selection  AllPairs or DirtyPairs.
//   Kernel     RatioKernel or CountKernel.
//   Finish     MatrixFinish, TriangleCountFinish or the sink finish.
// Bit identity across sources holds by construction: one ascending walk
// over lane-aligned bands, one reduction tree; padding adds exactly +0.0.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/severity.hpp"
#include "core/witness_kernels.hpp"
#include "util/parallel.hpp"

namespace tiv::core {

static_assert(DelayMatrixView::kLaneFloats % kWitnessLanes == 0);

/// Runs fn(i, j) over all pairs 0 <= i <= j < count, one pair per dynamic
/// claim, row-major within the triangle.
template <typename PairFn>
void for_each_triangle_pair(std::size_t count, PairFn&& fn) {
  const std::size_t pairs = count * (count + 1) / 2;
  parallel_for_dynamic(pairs, 1, [&](std::size_t begin, std::size_t end) {
    std::size_t i = 0;  // decode begin into (i, j): O(count) per chunk
    std::size_t rem = begin;
    while (rem >= count - i) rem -= count - i++;
    std::size_t j = i + rem;
    for (std::size_t k = begin; k < end; ++k) {
      fn(i, j);
      if (++j == count) j = ++i;
    }
  });
}

/// One selected pair, band-local: a = a0 + al, c = c0 + cl.
struct SelectedPair {
  std::uint32_t al;
  std::uint32_t cl;
  float dac;
};

/// The pairs one band pair selected.
struct BandPair {
  std::uint32_t bi, bj;
  HostId a0, c0;  ///< first global row of band bi / column of band bj
  std::vector<SelectedPair> measured;
  std::vector<SelectedPair> unmeasured;  ///< their severity is 0

  std::size_t selected() const { return measured.size() + unmeasured.size(); }
};

/// The in-memory source: each pair scans its full padded rows.
class ViewSource {
 public:
  /// 2 * 16 rows stay L2-resident even at n = 8192, and a band pair is
  /// still ~256 * n witnesses of work per dynamic claim.
  static constexpr std::uint32_t kBandRows = 16;

  /// Rows of one band from column col0; mask rows (read only on witness
  /// blocks, col0 == 0) are whole.
  struct Block {
    const DelayMatrixView* view;
    HostId row0;
    std::size_t col0;
    const float* row(std::uint32_t l) const {
      return view->row(row0 + l) + col0;
    }
    const std::uint64_t* mask_row(std::uint32_t l) const {
      return view->mask_row(row0 + l);
    }
  };

  explicit ViewSource(const DelayMatrixView& view) : view_(view) {}

  std::uint32_t band_dim() const { return kBandRows; }
  std::uint32_t bands() const {
    return (view_.size() + kBandRows - 1) / kBandRows;
  }
  std::uint32_t band_rows(std::uint32_t b) const {
    return std::min<HostId>(kBandRows, view_.size() - b * kBandRows);
  }
  std::uint32_t witness_bands() const { return 1; }
  std::size_t scan_len() const { return view_.stride(); }
  std::size_t mask_len() const { return view_.mask_words(); }
  Block delays(std::uint32_t bi, std::uint32_t bj) const {
    return {&view_, bi * kBandRows, std::size_t{bj} * kBandRows};
  }
  Block witnesses(std::uint32_t b, std::uint32_t /*k == 0*/) const {
    return {&view_, b * kBandRows, 0};
  }

 private:
  const DelayMatrixView& view_;
};

struct AllPairs {
  bool band_pair(std::uint32_t, std::uint32_t) const { return true; }
  bool pair(HostId, HostId) const { return true; }
};

/// The edges an epoch that perturbed host set H invalidates: the pairs
/// incident to H, |H|(n-1) - |H|(|H|-1)/2 of them.
class DirtyPairs {
 public:
  /// Throws std::invalid_argument for a host id >= n.
  DirtyPairs(HostId n, std::uint32_t band_dim, std::span<const HostId> hosts)
      : host_(n, 0), band_((n + band_dim - 1) / band_dim, 0) {
    for (const HostId h : hosts) {
      if (h >= n) throw std::invalid_argument("dirty host id out of range");
      host_[h] = band_[h / band_dim] = 1;
    }
  }
  bool band_pair(std::uint32_t bi, std::uint32_t bj) const {
    return (band_[bi] | band_[bj]) != 0;
  }
  bool pair(HostId a, HostId c) const { return (host_[a] | host_[c]) != 0; }

 private:
  std::vector<std::uint8_t> host_;
  std::vector<std::uint8_t> band_;
};

/// Severity: kWitnessLanes accumulators per measured pair, carried across
/// witness bands (O(band^2) per worker, outside any cache budget).
class RatioKernel {
 public:
  RatioKernel(std::size_t scan_len, std::size_t, std::size_t pairs)
      : scan_len_(scan_len), acc_(pairs * kWitnessLanes, 0.0) {}

  template <typename Block>
  void add(std::size_t t, const Block& ta, const Block& tc,
           const SelectedPair& p) {
    witness_ratio_accumulate(ta.row(p.al), tc.row(p.cl), scan_len_, p.dac,
                             acc_.data() + t * kWitnessLanes);
  }
  /// Unnormalized severity of measured pair t.
  double ratio_sum(std::size_t t) const {
    return witness_ratio_reduce(acc_.data() + t * kWitnessLanes);
  }

 private:
  std::size_t scan_len_;
  std::vector<double> acc_;
};

/// Exact triangle counting. A measurable triangle is scanned in 3
/// pair-roles but violates in exactly one, so the violating fraction is
/// 3 * violations / witnesses.
class CountKernel {
 public:
  CountKernel(std::size_t scan_len, std::size_t mask_len, std::size_t)
      : scan_len_(scan_len), mask_len_(mask_len) {}

  template <typename Block>
  void add(std::size_t, const Block& ta, const Block& tc,
           const SelectedPair& p) {
    witnesses += masked_witness_count(ta.mask_row(p.al), tc.mask_row(p.cl),
                                      mask_len_);
    violations += witness_violation_count(ta.row(p.al), tc.row(p.cl),
                                          scan_len_, p.dac);
  }
  std::size_t violations = 0;
  std::size_t witnesses = 0;

 private:
  std::size_t scan_len_;
  std::size_t mask_len_;
};

/// SeverityMatrix cells; distinct band pairs own distinct cells.
class MatrixFinish {
 public:
  explicit MatrixFinish(SeverityMatrix& sev)
      : sev_(sev), nd_(static_cast<double>(sev.size())) {}

  void operator()(const BandPair& bp, const RatioKernel& kernel) const {
    for (std::size_t t = 0; t < bp.measured.size(); ++t) {
      const SelectedPair& p = bp.measured[t];
      sev_.set(bp.a0 + p.al, bp.c0 + p.cl,
               static_cast<float>(kernel.ratio_sum(t) / nd_));
    }
    for (const SelectedPair& p : bp.unmeasured) {
      sev_.set(bp.a0 + p.al, bp.c0 + p.cl, 0.0f);
    }
  }

 private:
  SeverityMatrix& sev_;
  double nd_;
};

class TriangleCountFinish {
 public:
  void operator()(const BandPair&, const CountKernel& kernel) {
    violations_.fetch_add(kernel.violations, std::memory_order_relaxed);
    witnesses_.fetch_add(kernel.witnesses, std::memory_order_relaxed);
  }
  double fraction() const {
    const auto t = static_cast<double>(witnesses_.load());
    return t == 0.0 ? 0.0 : 3.0 * static_cast<double>(violations_.load()) / t;
  }

 private:
  std::atomic<std::size_t> violations_{0};
  std::atomic<std::size_t> witnesses_{0};
};

/// One band pair (bi <= bj) on the calling thread. Returns the number of
/// pairs selected, measured or not.
template <typename Kernel, typename Source, typename Selection,
          typename Finish>
std::size_t run_band_pair(const Source& src, const Selection& sel,
                          std::uint32_t bi, std::uint32_t bj,
                          Finish& finish) {
  if (!sel.band_pair(bi, bj)) return 0;
  BandPair bp{bi, bj, bi * src.band_dim(), bj * src.band_dim(), {}, {}};
  const std::uint32_t rows_i = src.band_rows(bi);
  const std::uint32_t rows_j = src.band_rows(bj);
  {
    const auto dac = src.delays(bi, bj);
    for (std::uint32_t al = 0; al < rows_i; ++al) {
      for (std::uint32_t cl = bi == bj ? al + 1 : 0; cl < rows_j; ++cl) {
        if (!sel.pair(bp.a0 + al, bp.c0 + cl)) continue;
        const float d = dac.row(al)[cl];
        (d >= DelayMatrixView::kMaskedDelay ? bp.unmeasured : bp.measured)
            .push_back({al, cl, d});
      }
    }
  }
  Kernel kernel(src.scan_len(), src.mask_len(), bp.measured.size());
  // Ascending k keeps each lane's additions in the monolithic scan order.
  // The d_ac block above is already released, so a worker holds at most
  // the two witness blocks of one k (pinned_input_floor sizes on this).
  const std::uint32_t kbands = bp.measured.empty() ? 0 : src.witness_bands();
  for (std::uint32_t k = 0; k < kbands; ++k) {
    const auto ta = src.witnesses(bi, k);
    const auto tc = bj == bi ? ta : src.witnesses(bj, k);
    for (std::size_t t = 0; t < bp.measured.size(); ++t) {
      kernel.add(t, ta, tc, bp.measured[t]);
    }
  }
  finish(bp, kernel);
  return bp.selected();
}

/// run_band_pair over every band pair, on the pool. A band pair can throw
/// (tile I/O) and the pool terminates on a worker exception, so the first
/// failure is captured, the remaining band pairs are skipped, and it is
/// rethrown here once the loop drains. Returns the pairs selected.
template <typename Kernel, typename Source, typename Selection,
          typename Finish>
std::size_t run_band_pairs(const Source& src, const Selection& sel,
                           Finish&& finish) {
  std::atomic<std::size_t> selected{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  for_each_triangle_pair(src.bands(), [&](std::size_t bi, std::size_t bj) {
    if (failed.load(std::memory_order_relaxed)) return;
    try {
      const std::size_t s = run_band_pair<Kernel>(
          src, sel, static_cast<std::uint32_t>(bi),
          static_cast<std::uint32_t>(bj), finish);
      if (s != 0) selected.fetch_add(s, std::memory_order_relaxed);
    } catch (...) {
      std::lock_guard<std::mutex> lk(error_mutex);
      if (!error) error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  });
  if (error) std::rethrow_exception(error);
  return selected.load();
}

}  // namespace tiv::core
