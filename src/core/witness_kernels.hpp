// Witness-scan primitives: the lanes of the band-pair severity driver
// (band_pair_driver.hpp, every whole-matrix and dirty-epoch path) and of
// the per-edge batches (severity.cpp).
//
// All functions scan packed-view data: missing entries are
// DelayMatrixView::kMaskedDelay (huge), the diagonal is 0, so missing-leg
// and self-witness exclusions are implicit (see delay_matrix.hpp). The
// loop bodies are pure arithmetic + compares and auto-vectorize, except
// the ratio scan on AVX-512 builds, which is written with intrinsics.
//
// The ratio accumulation is split into accumulate + reduce so a caller can
// feed witnesses in column chunks: kWitnessLanes independent accumulators,
// lane l taking columns b with b % kWitnessLanes == l. As long as chunks
// are multiples of kWitnessBlock and arrive in ascending column order, the
// per-lane addition sequences — and therefore the reduced double — are
// bit-identical whether the scan ran over one contiguous row or over tiles
// streamed from disk. Masked/padding columns contribute nothing: the dense
// scan adds exactly +0.0, an exact no-op on the non-negative partial sums,
// and the block-sparse AVX-512 scan skips them, so differing amounts of
// tail padding between the two paths cannot change the result, and the two
// scans agree bit for bit (docs/PERFORMANCE.md, "Block-sparse ratio
// kernel").
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace tiv::core {

/// The triangulation term d_ac / detour of one violating witness: a
/// correctly rounded IEEE float division, widened to double for the sum.
/// This is the single definition every severity path uses — the vector
/// kernel below and the scalar oracles in severity.cpp alike — so the
/// scalar and vector terms are identical and only the summation order
/// differs. Float division runs at several times the vector throughput of
/// double division, which is what bounds the O(n^3) ratio scan; the ~6e-8
/// relative rounding of one term is below the float resolution the
/// SeverityMatrix stores anyway. Rounding is monotone, so the term is
/// non-increasing in detour (max term == term at the minimum detour).
inline double witness_ratio(float dac, float detour) {
  return static_cast<double>(dac / detour);
}

/// Independent accumulator lanes of the ratio reduction. A divisor of
/// DelayMatrixView::kLaneFloats, so both the view's row padding and any
/// tile width that is a multiple of the lane count preserve lane phase.
inline constexpr std::size_t kWitnessLanes = 8;

/// Columns per block of the block-sparse ratio kernel: one 512-bit vector
/// of floats. Every ratio caller scans whole blocks (the view stride and
/// tile_dim are multiples of DelayMatrixView::kLaneFloats == 16).
inline constexpr std::size_t kWitnessBlock = 16;

/// Which witness_ratio_accumulate this build compiled (bench metadata).
#if defined(__AVX512F__)
inline constexpr const char* kWitnessRatioKernel = "avx512_block_sparse";
#else
inline constexpr const char* kWitnessRatioKernel = "dense";
#endif

/// The dense ratio scan: adds to acc[kWitnessLanes] the triangulation
/// ratios d_ac / (d_ab + d_bc) of violating witnesses (detour < d_ac,
/// detour > 0) in columns [0, len) of packed rows ra/rc, dividing on every
/// lane and adding +0.0 for the witnesses that do not violate. len must be
/// a multiple of kWitnessLanes. Lane phase follows the caller's global
/// column offset: pass rows whose column 0 is a multiple of kWitnessLanes
/// globally. The only path on builds without AVX-512, and the reference
/// the block-sparse kernel is tested against bit for bit.
///
/// Both ratio scans are defined once, in witness_kernels.cpp, so every
/// caller runs the copy compiled with tiv_core's value-safe FP flags
/// (without -fno-trapping-math GCC keeps the conditional division scalar,
/// and an inline copy instantiated outside the library could be the one
/// the linker keeps), and never inlined: inlined into the band-pair
/// driver's loops, GCC 12 vectorizes the dense scan in some instantiations
/// and emits eight scalar divisions in others (up to 10x slower).
[[gnu::noinline]] void witness_ratio_accumulate_dense(const float* ra,
                                                      const float* rc,
                                                      std::size_t len,
                                                      float dac, double* acc);

/// The ratio scan every severity path calls: the same sums as
/// witness_ratio_accumulate_dense, bit for bit, for acc entries that are
/// not -0.0 (the severity paths start from +0.0 and add only positive
/// terms). Precondition: len % kWitnessBlock == 0, column 0 lane-aligned
/// globally. Without AVX-512 it is the dense scan. With AVX-512 it divides
/// only in the 16-column blocks that hold a violator (calls shorter than 8
/// blocks, where that does not pay, run the dense scan).
///
/// The dense scan is divider-bound, yet only a few percent of witnesses
/// violate and most blocks hold none. So each run of up to 64 blocks is
/// scanned twice. Pass 1 only adds and compares, and sets bit j of a
/// register-held word when block j holds a violator. Pass 2 walks the set
/// bits in ascending order and, per set block, computes witness_ratio's
/// float division, widens it, and adds the low 8 and then the high 8 terms
/// into the 8 lane accumulators with masked adds. Every lane thus receives
/// exactly the dense scan's violating terms in the same order; a masked-off
/// lane keeps its value, which equals the dense `acc + 0.0` for any acc
/// but -0.0.
[[gnu::noinline]] void witness_ratio_accumulate(const float* ra,
                                                const float* rc,
                                                std::size_t len, float dac,
                                                double* acc);

/// Fixed pairwise reduction of the lane accumulators. Deterministic order;
/// every caller must use this (not a left-to-right sum) so partial-sum
/// paths match the monolithic scan bit for bit.
inline double witness_ratio_reduce(const double* acc) {
  static_assert(kWitnessLanes == 8, "reduction tree is written for 8 lanes");
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/// Strict-violation count (detour < dac AND detour > 0 — the edge_stats
/// classification; unlike witness_violation_count below it excludes
/// zero-length detours) and minimum violating detour in [0, len).
struct WitnessViolationStats {
  std::size_t count = 0;
  /// The edge's own d_ac when count == 0 (callers must gate on count). The
  /// max triangulation ratio follows in O(1): witness_ratio is monotone
  /// non-increasing in detour, so max ratio = witness_ratio(dac,
  /// min_detour) — the identical term of the identical float detour the
  /// scalar reference takes its running max over, hence bit-identical.
  float min_detour = 0.0f;
};

/// One pass of the strict-violation scan for the batched edge engine. The
/// body is what lets it run at count-kernel speed: accumulator lanes are
/// function-local (a caller-provided float lane array could alias the rows,
/// blocking vectorization), and the min runs in the integer domain —
/// non-negative IEEE-754 floats order identically to their bit patterns, so
/// blending non-positive detours to dac's bits and taking an integer min is
/// exact while sidestepping GCC's refusal to if-convert a float select
/// feeding a float min (it emits scalar branches for that shape; this
/// formulation ran ~7x faster at n = 1024). All detours here are sums of
/// non-negative packed-view entries, so the positivity precondition holds
/// by construction.
inline WitnessViolationStats witness_violation_minmax(const float* ra,
                                                      const float* rc,
                                                      std::size_t len,
                                                      float dac) {
  std::uint32_t dac_bits = std::bit_cast<std::uint32_t>(dac);
  std::uint32_t cnt[kWitnessLanes] = {};
  std::uint32_t mind[kWitnessLanes];
  for (std::size_t l = 0; l < kWitnessLanes; ++l) mind[l] = dac_bits;
  for (std::size_t b = 0; b < len; b += kWitnessLanes) {
    for (std::size_t l = 0; l < kWitnessLanes; ++l) {
      const float detour = ra[b + l] + rc[b + l];
      cnt[l] += ((detour < dac) & (detour > 0.0f)) ? 1u : 0u;
      // Zero detours blend to dac (a no-op under min); positive
      // non-violating detours are >= dac in the integer order already.
      const std::uint32_t cand = detour > 0.0f
                                     ? std::bit_cast<std::uint32_t>(detour)
                                     : dac_bits;
      mind[l] = cand < mind[l] ? cand : mind[l];
    }
  }
  WitnessViolationStats out;
  std::uint32_t best = dac_bits;
  for (std::size_t l = 0; l < kWitnessLanes; ++l) {
    out.count += cnt[l];
    best = mind[l] < best ? mind[l] : best;
  }
  out.min_detour = std::bit_cast<float>(best);
  return out;
}

/// Best one-hop relay detour over packed rows: min over b in [0, len) of
/// ra[b] + rb[b], each leg widened to double before the add (the exact
/// arithmetic of the scalar oracle scan, so the min — which is
/// order-independent — is bit-identical to it). Missing legs, padding, and
/// an unmeasured self-column sum to >= DelayMatrixView::kMaskedDelay, so a
/// result at or above that sentinel means "no relay with both legs
/// measured". Self-columns b == a / b == b' contribute exactly the direct
/// delay when it is measured — never better than the true best relay — so
/// callers that fold the result into min(direct, relays) need no index
/// exclusions at all.
inline double relay_min_scan(const float* ra, const float* rb,
                             std::size_t len) {
  double best[kWitnessLanes];
  for (std::size_t l = 0; l < kWitnessLanes; ++l) {
    best[l] = std::numeric_limits<double>::infinity();
  }
  for (std::size_t b = 0; b < len; b += kWitnessLanes) {
    for (std::size_t l = 0; l < kWitnessLanes; ++l) {
      const double via = static_cast<double>(ra[b + l]) + rb[b + l];
      best[l] = via < best[l] ? via : best[l];
    }
  }
  double out = best[0];
  for (std::size_t l = 1; l < kWitnessLanes; ++l) {
    out = best[l] < out ? best[l] : out;
  }
  return out;
}

/// Number of witnesses b in [0, len) with detour < d_ac. Unlike the ratio
/// scan there is no detour > 0 exclusion: a measured zero-length detour
/// violates the triangle inequality for counting purposes (matches the
/// scalar violating_triangle_fraction reference). Exact integer math, so
/// chunked calls sum to the monolithic count in any order. 32-bit lanes
/// (the witness_violation_minmax shape) pack twice the lanes per vector of
/// 64-bit ones; a lane counts at most len / kWitnessLanes witnesses, far
/// below 2^32 for any view that fits in memory.
inline std::size_t witness_violation_count(const float* ra, const float* rc,
                                           std::size_t len, float dac) {
  std::uint32_t acc[kWitnessLanes] = {};
  for (std::size_t b = 0; b < len; b += kWitnessLanes) {
    for (std::size_t l = 0; l < kWitnessLanes; ++l) {
      const float detour = ra[b + l] + rc[b + l];
      acc[l] += detour < dac ? 1u : 0u;
    }
  }
  std::size_t total = 0;
  for (std::size_t l = 0; l < kWitnessLanes; ++l) total += acc[l];
  return total;
}

/// Witnesses with both legs measured: popcount over the AND of two
/// missing-entry bitmask rows (a row's own bit is never set, so b == a and
/// b == c fall out automatically). Chunk-sum-safe like the count above.
inline std::size_t masked_witness_count(const std::uint64_t* ma,
                                        const std::uint64_t* mc,
                                        std::size_t words) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < words; ++w) {
    count += static_cast<std::size_t>(std::popcount(ma[w] & mc[w]));
  }
  return count;
}

}  // namespace tiv::core
