// AVX2 lane-per-sample Equation-1 kernel: 4 samples per instruction.
//
// Compiled per-file with -mavx2 -mfma -ffp-contract=off (see
// src/core/CMakeLists.txt); dense_kernels.cpp dispatches here at runtime
// only after cpuid confirms AVX2+FMA.
//
// Bit-identity argument: the kernel vectorizes ACROSS samples, so every
// arithmetic step is the element-wise IEEE-754 operation the scalar path
// performs on that lane's sample, in the same order — vdivpd/vmulpd/vaddpd
// round each lane exactly like divsd/mulsd/addsd. The accumulation uses
// separate multiply and add intrinsics (never an FMA), because the scalar
// path rounds `per * v2f`, then `coef * (...)`, then the add as three
// operations; -ffp-contract=off additionally forbids the compiler from
// re-fusing them. The only "hoisted" values (v2f, f·1e9) are pure per-lane
// products the scalar loop recomputes with identical inputs, so the bits
// match. tests/batch_test.cpp pins scalar-vs-AVX2 digest equality.
#include "core/dense_kernels.hpp"

#ifdef PWX_HAVE_AVX2_KERNEL

#include <immintrin.h>

#include <cstring>
#include <limits>

namespace pwx::core::detail {

namespace {

/// isfinite(x), lane-wise: ordered (not NaN) and |x| < inf.
inline __m256d finite(__m256d x, __m256d inf) {
  const __m256d abs_x = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
  return _mm256_and_pd(_mm256_cmp_pd(x, x, _CMP_ORD_Q),
                       _mm256_cmp_pd(abs_x, inf, _CMP_LT_OQ));
}

/// Lane-mask nibble → 4 validity bytes, written with one table load instead
/// of a per-lane shift/mask loop.
constexpr std::uint32_t kMaskBytes[16] = {
    0x00000000u, 0x00000001u, 0x00000100u, 0x00000101u,
    0x00010000u, 0x00010001u, 0x00010100u, 0x00010101u,
    0x01000000u, 0x01000001u, 0x01000100u, 0x01000101u,
    0x01010000u, 0x01010001u, 0x01010100u, 0x01010101u};

/// One 4-lane block starting at lane `i`, writing `live` (<= 4) outputs.
/// Every call site inlines with `live` known, so the tail branches fold
/// away in the hot loop.
inline void predict_block(const BatchArgs& args, std::size_t i,
                          std::size_t live, __m256d inf, __m256d giga,
                          __m256d intercept, bool use_inv) {
  const __m256d e = _mm256_loadu_pd(args.elapsed + i);
  const __m256d inv_e = use_inv ? _mm256_loadu_pd(args.inv_elapsed + i)
                                : _mm256_setzero_pd();
  const __m256d f = _mm256_loadu_pd(args.frequency + i);
  const __m256d v = _mm256_loadu_pd(args.voltage + i);
  const __m256d v2f = _mm256_mul_pd(_mm256_mul_pd(v, v), f);
  const __m256d denom = args.per_cycle ? _mm256_mul_pd(f, giga) : giga;
  __m256d acc = intercept;
  for (std::size_t s = 0; s < args.slots; ++s) {
    const __m256d c = _mm256_loadu_pd(args.columns[s] + i);
    // counts·(1/elapsed) replaces the divide bit-identically when the
    // batch proved every elapsed a power of two (see BatchArgs).
    const __m256d rate = use_inv ? _mm256_mul_pd(c, inv_e) : _mm256_div_pd(c, e);
    const __m256d per = _mm256_div_pd(rate, denom);
    // Separate mul/mul/add — an FMA here would skip the intermediate
    // rounding the scalar path performs and break bit-identity.
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(args.coef[s]),
                                           _mm256_mul_pd(per, v2f)));
  }
  acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(args.dyn_coef), v2f));
  acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(args.static_coef), v));
  const __m256d ok = finite(acc, inf);
  if (args.clamp) {
    // std::clamp via compare+blend: lanes where acc < min take min, then
    // lanes where max < acc take max. NaN lanes fail both compares and
    // pass through, and -0.0 vs +0.0 ties keep acc — bit-for-bit what the
    // scalar std::clamp fold produces (max/min instructions would not).
    const __m256d lo = _mm256_set1_pd(args.clamp_min);
    const __m256d hi = _mm256_set1_pd(args.clamp_max);
    acc = _mm256_blendv_pd(acc, lo, _mm256_cmp_pd(acc, lo, _CMP_LT_OQ));
    acc = _mm256_blendv_pd(acc, hi, _mm256_cmp_pd(hi, acc, _CMP_LT_OQ));
  }
  if (live == 4) {
    _mm256_storeu_pd(args.out + i, acc);
  } else {
    // Tail block: the padding lanes are benign (computed safely above)
    // but the caller's spans only cover the live lanes.
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, acc);
    std::memcpy(args.out + i, tmp, live * sizeof(double));
  }
  // try_predict's verdict: append-time input validity ANDed with the
  // output finiteness of this block's (pre-clamp) predictions.
  std::uint32_t bytes = kMaskBytes[_mm256_movemask_pd(ok) & 0xF];
  std::uint32_t input_bytes;
  std::memcpy(&input_bytes, args.lane_valid + i, 4);  // padding lanes valid
  bytes &= input_bytes;
  std::memcpy(args.valid + i, &bytes, live == 4 ? 4 : live);
}

}  // namespace

void predict_lanes_avx2(const BatchArgs& args) {
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d giga = _mm256_set1_pd(1e9);
  const __m256d intercept = _mm256_set1_pd(args.intercept);
  const bool use_inv = args.inv_elapsed != nullptr;
  const std::size_t full = args.lanes / 4 * 4;
  std::size_t i = 0;
  // Unrolled pairs of full blocks: the two accumulator chains are
  // independent, so their divides and adds overlap in the out-of-order
  // window without any cross-block rounding interaction.
  for (; i + 8 <= full; i += 8) {
    predict_block(args, i, 4, inf, giga, intercept, use_inv);
    predict_block(args, i + 4, 4, inf, giga, intercept, use_inv);
  }
  for (; i < full; i += 4) {
    predict_block(args, i, 4, inf, giga, intercept, use_inv);
  }
  if (i < args.lanes) {
    predict_block(args, i, args.lanes - i, inf, giga, intercept, use_inv);
  }
}

}  // namespace pwx::core::detail

#endif  // PWX_HAVE_AVX2_KERNEL
