#include "core/witness_kernels.hpp"

#include <algorithm>
#include <cassert>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace tiv::core {

void witness_ratio_accumulate_dense(const float* ra, const float* rc,
                                    std::size_t len, float dac,
                                    double* acc) {
  for (std::size_t b = 0; b < len; b += kWitnessLanes) {
    for (std::size_t l = 0; l < kWitnessLanes; ++l) {
      const float detour = ra[b + l] + rc[b + l];
      const bool violates = (detour < dac) & (detour > 0.0f);
      // Unconditional division with a blended-safe divisor: cheaper than a
      // branch per witness and keeps the loop if-convertible. The term is
      // witness_ratio, so it is bit-identical to the scalar oracles' term
      // (only the summation order differs).
      const double ratio = witness_ratio(dac, violates ? detour : 1.0f);
      acc[l] += violates ? ratio : 0.0;
    }
  }
}

#if defined(__AVX512F__)
void witness_ratio_accumulate(const float* ra, const float* rc,
                              std::size_t len, float dac, double* acc) {
  static_assert(kWitnessLanes == 8 && kWitnessBlock == 16,
                "one zmm of floats feeds one zmm of double lanes twice");
  assert(len % kWitnessBlock == 0);
  // Below 8 blocks pass 2's data-dependent branches cost more than the
  // divisions they skip: in the band-pair driver's call order (witness
  // band outer, pairs inner) 32- and 64-column calls ran 1.1-1.4x slower
  // than the dense scan, 128 and more 1.15-1.3x faster.
  constexpr std::size_t kMinSparseLen = 8 * kWitnessBlock;
  if (len < kMinSparseLen) {
    witness_ratio_accumulate_dense(ra, rc, len, dac, acc);
    return;
  }
  constexpr std::size_t kWordBlocks = 64;
  const __m512 vdac = _mm512_set1_ps(dac);
  const __m512 zero = _mm512_setzero_ps();
  const auto detour = [&](std::size_t b) {
    return _mm512_add_ps(_mm512_loadu_ps(ra + b), _mm512_loadu_ps(rc + b));
  };
  const auto violates = [&](__m512 d) {  // (d < dac) & (d > 0)
    return _mm512_mask_cmp_ps_mask(_mm512_cmp_ps_mask(d, vdac, _CMP_LT_OQ),
                                   d, zero, _CMP_GT_OQ);
  };
  __m512d sum = _mm512_loadu_pd(acc);
  for (std::size_t base = 0; base < len;
       base += kWordBlocks * kWitnessBlock) {
    const std::size_t blocks =
        std::min(kWordBlocks, (len - base) / kWitnessBlock);
    std::uint64_t word = 0;  // pass 1: bit j <=> block j holds a violator
    for (std::size_t j = 0; j < blocks; ++j) {
      const __mmask16 m = violates(detour(base + j * kWitnessBlock));
      word |= std::uint64_t{m != 0} << j;
    }
    for (; word != 0; word &= word - 1) {  // pass 2: ascending set blocks
      const std::size_t b =
          base + static_cast<std::size_t>(std::countr_zero(word)) *
                     kWitnessBlock;
      const __m512 d = detour(b);
      const __mmask16 m = violates(d);
      // Full-mask maskz forms: the plain extract/convert intrinsics pass an
      // undefined source operand that GCC 12 reports as maybe-uninitialized.
      const __m512d q = _mm512_castps_pd(_mm512_div_ps(vdac, d));
      const __m512d lo = _mm512_maskz_cvtps_pd(
          0xff, _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xf, q, 0)));
      const __m512d hi = _mm512_maskz_cvtps_pd(
          0xff, _mm256_castpd_ps(_mm512_maskz_extractf64x4_pd(0xf, q, 1)));
      sum = _mm512_mask_add_pd(sum, static_cast<__mmask8>(m), sum, lo);
      sum = _mm512_mask_add_pd(sum, static_cast<__mmask8>(m >> 8), sum, hi);
    }
  }
  _mm512_storeu_pd(acc, sum);
}
#else
void witness_ratio_accumulate(const float* ra, const float* rc,
                              std::size_t len, float dac, double* acc) {
  assert(len % kWitnessBlock == 0);
  witness_ratio_accumulate_dense(ra, rc, len, dac, acc);
}
#endif

}  // namespace tiv::core
