#include "src/common/simd.hpp"

#include <atomic>

#if defined(TWIDDC_X86_TIERS)
#include <immintrin.h>
#endif

// The NEON intrinsic paths need AArch64: they rely on 64-bit lane compares
// (vcgtq_s64) and 64-bit shifts that ARMv7 NEON does not provide.  32-bit ARM
// builds keep the autovectorisable scalar loops.
#if defined(__ARM_NEON) && defined(__aarch64__)
#define TWIDDC_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace twiddc::simd {

// ---------------------------------------------------------------- dispatch

namespace {

std::atomic<bool> g_enabled{true};
std::atomic<bool> g_avx512{true};

/// The best tier this CPU runs.  __builtin_cpu_init() first: the probe may
/// run before libgcc's own constructor has filled in the cpuid data.
Tier cpu_tier() {
#if defined(TWIDDC_X86_TIERS)
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx2")) return Tier::kBaseline;
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl"))
    return Tier::kAvx512;
  return Tier::kAvx2;
#else
  return Tier::kBaseline;
#endif
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool avx512_enabled() { return g_avx512.load(std::memory_order_relaxed); }
void set_avx512_enabled(bool on) { g_avx512.store(on, std::memory_order_relaxed); }

Tier tier() {
  if (!enabled()) return Tier::kBaseline;
  static const Tier best = cpu_tier();
  return best == Tier::kAvx512 && !avx512_enabled() ? Tier::kAvx2 : best;
}

const char* active_path() {
  switch (tier()) {
    case Tier::kAvx512: return "avx512";
    case Tier::kAvx2: return "avx2";
    case Tier::kBaseline: break;
  }
#if defined(TWIDDC_SIMD_NEON)
  if (enabled()) return "neon";
#endif
  return "scalar";
}

// ------------------------------------------------------------- scalar bodies
//
// The baseline tier of the LUT fill and the mixer narrow, and the tails of
// their vector bodies.

namespace {

std::uint32_t lut_sincos_block_scalar(std::uint32_t phase, std::uint32_t step,
                                      const std::int32_t* table, int table_bits,
                                      std::size_t n, std::int32_t* cos_out,
                                      std::int32_t* sin_out) {
  const std::uint32_t mask = (std::uint32_t{1} << table_bits) - 1;
  const std::uint32_t top = mask;  // table size - 1
  const int shift = 30 - table_bits;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t quadrant = phase >> 30;
    const std::uint32_t index = (phase >> shift) & mask;
    const std::int32_t fwd = table[index];
    const std::int32_t mir = table[top - index];
    switch (quadrant) {
      case 0: sin_out[k] = fwd;  cos_out[k] = mir;  break;
      case 1: sin_out[k] = mir;  cos_out[k] = -fwd; break;
      case 2: sin_out[k] = -fwd; cos_out[k] = -mir; break;
      default: sin_out[k] = -mir; cos_out[k] = fwd; break;
    }
    phase += step;
  }
  return phase;
}

void mul_shift_narrow_scalar(const std::int64_t* x, const std::int32_t* m,
                             std::size_t n, int shift, int bits,
                             fixed::Rounding rounding, fixed::Overflow overflow,
                             std::int64_t* out) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::int64_t wide = fixed::shift_right(x[k] * m[k], shift, rounding);
    out[k] = bits == 0 ? wide : fixed::narrow(wide, bits, overflow);
  }
}

}  // namespace

// ------------------------------------------------------------- block scans

void minmax_i64(const std::int64_t* v, std::size_t n, std::int64_t& lo,
                std::int64_t& hi) {
  run_tiered([&]() TWIDDC_ALWAYS_INLINE {
    std::int64_t mn = v[0];
    std::int64_t mx = v[0];
    for (std::size_t i = 1; i < n; ++i) {
      mn = v[i] < mn ? v[i] : mn;
      mx = v[i] > mx ? v[i] : mx;
    }
    lo = mn;
    hi = mx;
  });
}

bool all_fit_i32(const std::int64_t* v, std::size_t n) {
  // Branch-free: (v + 2^31) fits uint32 iff v fits int32; OR the high words.
  bool fit = true;
  run_tiered([&]() TWIDDC_ALWAYS_INLINE {
    std::uint64_t high = 0;
    for (std::size_t i = 0; i < n; ++i)
      high |= (static_cast<std::uint64_t>(v[i]) + 0x80000000ull) >> 32;
    fit = high == 0;
  });
  return fit;
}

// ------------------------------------------------------ x86 intrinsic tiers

#if defined(TWIDDC_X86_TIERS)
// GCC 12's AVX-512 headers self-initialise their `_mm512_undefined_*`
// placeholders, which -Wall reports wherever an intrinsic using one is
// inlined (GCC bug 105593).  The report is about the header, not this code.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
namespace {

/// Exact low 64 bits of a 64x64 multiply from 32-bit partial products.
TWIDDC_TARGET_AVX2 inline __m256i mullo_epi64(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i mid =
      _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(mid, 32));
}

/// Arithmetic shift right of 4x int64 by s in [1, 63] (AVX2 has no sra64).
TWIDDC_TARGET_AVX2 inline __m256i sra_epi64(__m256i v, int s) {
  const __m256i sign = _mm256_cmpgt_epi64(_mm256_setzero_si256(), v);
  return _mm256_or_si256(_mm256_srli_epi64(v, s), _mm256_slli_epi64(sign, 64 - s));
}

TWIDDC_TARGET_AVX2 inline std::int64_t hsum_epi64(__m256i v) {
  alignas(32) std::int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return static_cast<std::int64_t>(
      static_cast<std::uint64_t>(lanes[0]) + static_cast<std::uint64_t>(lanes[1]) +
      static_cast<std::uint64_t>(lanes[2]) + static_cast<std::uint64_t>(lanes[3]));
}

/// Lane mask whose first r (of 4) int64 lanes are selected, for the masked
/// tail loads below.  A sliding window over this table produces the mask
/// without branches: offset 4-r yields r leading all-ones lanes.
alignas(32) constexpr std::int64_t kTailMask[8] = {-1, -1, -1, -1, 0, 0, 0, 0};

TWIDDC_TARGET_AVX2 std::int64_t dot_i64_avx2(const std::int64_t* a,
                                             const std::int64_t* b, std::size_t n,
                                             bool narrow_ok) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t j = 0;
  if (narrow_ok) {
    for (; j + 4 <= n; j += 4) {
      const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
      const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      acc = _mm256_add_epi64(acc, _mm256_mul_epi32(va, vb));
    }
  } else {
    for (; j + 4 <= n; j += 4) {
      const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + j));
      const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      acc = _mm256_add_epi64(acc, mullo_epi64(va, vb));
    }
  }
  if (j < n) {
    // Masked tail: the 1..3 leftover lanes stay on the vector path.
    // Masked-out lanes load as zero, contributing zero products, so the
    // mod-2^64 accumulation stays bit-exact with the scalar loop.
    const __m256i mask = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kTailMask + (4 - (n - j))));
    const __m256i va =
        _mm256_maskload_epi64(reinterpret_cast<const long long*>(a + j), mask);
    const __m256i vb =
        _mm256_maskload_epi64(reinterpret_cast<const long long*>(b + j), mask);
    acc = _mm256_add_epi64(acc, narrow_ok ? _mm256_mul_epi32(va, vb)
                                          : mullo_epi64(va, vb));
  }
  return hsum_epi64(acc);
}

/// 8-lane dot product with a masked tail: the 1..7 leftover lanes load as
/// zero under an __mmask8, contributing zero products, so the mod-2^64
/// accumulation stays bit-exact with the scalar loop.
TWIDDC_TARGET_AVX512 std::int64_t dot_i64_avx512(const std::int64_t* a,
                                                 const std::int64_t* b,
                                                 std::size_t n, bool narrow_ok) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t j = 0;
  if (narrow_ok) {
    for (; j + 8 <= n; j += 8) {
      const __m512i va = _mm512_loadu_si512(a + j);
      const __m512i vb = _mm512_loadu_si512(b + j);
      acc = _mm512_add_epi64(acc, _mm512_mul_epi32(va, vb));
    }
  } else {
    for (; j + 8 <= n; j += 8) {
      const __m512i va = _mm512_loadu_si512(a + j);
      const __m512i vb = _mm512_loadu_si512(b + j);
      acc = _mm512_add_epi64(acc, _mm512_mullo_epi64(va, vb));
    }
  }
  if (j < n) {
    const __mmask8 tail = static_cast<__mmask8>((1u << (n - j)) - 1u);
    const __m512i va = _mm512_maskz_loadu_epi64(tail, a + j);
    const __m512i vb = _mm512_maskz_loadu_epi64(tail, b + j);
    acc = _mm512_add_epi64(acc, narrow_ok ? _mm512_mul_epi32(va, vb)
                                          : _mm512_mullo_epi64(va, vb));
  }
  return _mm512_reduce_add_epi64(acc);
}

TWIDDC_TARGET_AVX2 std::uint32_t lut_sincos_avx2(std::uint32_t phase,
                                                 std::uint32_t step,
                                                 const std::int32_t* table,
                                                 int table_bits, std::size_t n,
                                                 std::int32_t* cos_out,
                                                 std::int32_t* sin_out) {
  const std::uint32_t mask = (std::uint32_t{1} << table_bits) - 1;
  const int shift = 30 - table_bits;
  const __m256i vmask = _mm256_set1_epi32(static_cast<int>(mask));
  const __m256i vtop = vmask;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i two = _mm256_set1_epi32(2);
  __m256i vphase = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int>(phase)),
      _mm256_mullo_epi32(_mm256_set1_epi32(static_cast<int>(step)),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)));
  const __m256i vstep8 = _mm256_set1_epi32(static_cast<int>(step * 8u));
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256i quadrant = _mm256_srli_epi32(vphase, 30);
    const __m256i index = _mm256_and_si256(_mm256_srli_epi32(vphase, shift), vmask);
    const __m256i fwd = _mm256_i32gather_epi32(table, index, 4);
    const __m256i mir = _mm256_i32gather_epi32(table, _mm256_sub_epi32(vtop, index), 4);
    // Quadrant bit 0 swaps fwd/mir; the negation masks follow the scalar
    // switch: sin negates in quadrants 2,3 (bit 1), cos in 1,2 (bit0^bit1).
    const __m256i bit0 = _mm256_cmpeq_epi32(_mm256_and_si256(quadrant, one), one);
    const __m256i bit1 = _mm256_cmpeq_epi32(_mm256_and_si256(quadrant, two), two);
    const __m256i sin_base = _mm256_blendv_epi8(fwd, mir, bit0);
    const __m256i cos_base = _mm256_blendv_epi8(mir, fwd, bit0);
    const __m256i sin_v =
        _mm256_blendv_epi8(sin_base, _mm256_sub_epi32(zero, sin_base), bit1);
    const __m256i cos_neg = _mm256_xor_si256(bit0, bit1);
    const __m256i cos_v =
        _mm256_blendv_epi8(cos_base, _mm256_sub_epi32(zero, cos_base), cos_neg);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sin_out + k), sin_v);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(cos_out + k), cos_v);
    vphase = _mm256_add_epi32(vphase, vstep8);
  }
  phase += static_cast<std::uint32_t>(k) * step;
  return lut_sincos_block_scalar(phase, step, table, table_bits, n - k, cos_out + k,
                                 sin_out + k);
}

/// 16 phases per iteration; same quadrant algebra as the AVX2 path, with the
/// blend/negate selectors as __mmask16 predicates instead of byte masks.
TWIDDC_TARGET_AVX512 std::uint32_t lut_sincos_avx512(std::uint32_t phase,
                                                     std::uint32_t step,
                                                     const std::int32_t* table,
                                                     int table_bits, std::size_t n,
                                                     std::int32_t* cos_out,
                                                     std::int32_t* sin_out) {
  const std::uint32_t mask = (std::uint32_t{1} << table_bits) - 1;
  const int shift = 30 - table_bits;
  const __m512i vmask = _mm512_set1_epi32(static_cast<int>(mask));
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i two = _mm512_set1_epi32(2);
  __m512i vphase = _mm512_add_epi32(
      _mm512_set1_epi32(static_cast<int>(phase)),
      _mm512_mullo_epi32(
          _mm512_set1_epi32(static_cast<int>(step)),
          _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)));
  const __m512i vstep16 = _mm512_set1_epi32(static_cast<int>(step * 16u));
  std::size_t k = 0;
  for (; k + 16 <= n; k += 16) {
    const __m512i quadrant = _mm512_srli_epi32(vphase, 30);
    const __m512i index =
        _mm512_and_si512(_mm512_srl_epi32(vphase, _mm_cvtsi32_si128(shift)), vmask);
    const __m512i fwd = _mm512_i32gather_epi32(index, table, 4);
    const __m512i mir = _mm512_i32gather_epi32(_mm512_sub_epi32(vmask, index), table, 4);
    // Quadrant bit 0 swaps fwd/mir; sin negates in quadrants 2,3 (bit 1),
    // cos in 1,2 (bit0 ^ bit1) -- the scalar switch, predicated.
    const __mmask16 bit0 = _mm512_test_epi32_mask(quadrant, one);
    const __mmask16 bit1 = _mm512_test_epi32_mask(quadrant, two);
    const __m512i sin_base = _mm512_mask_blend_epi32(bit0, fwd, mir);
    const __m512i cos_base = _mm512_mask_blend_epi32(bit0, mir, fwd);
    const __m512i sin_v = _mm512_mask_sub_epi32(sin_base, bit1, zero, sin_base);
    const __mmask16 cos_neg = bit0 ^ bit1;
    const __m512i cos_v = _mm512_mask_sub_epi32(cos_base, cos_neg, zero, cos_base);
    _mm512_storeu_si512(sin_out + k, sin_v);
    _mm512_storeu_si512(cos_out + k, cos_v);
    vphase = _mm512_add_epi32(vphase, vstep16);
  }
  phase += static_cast<std::uint32_t>(k) * step;
  return lut_sincos_block_scalar(phase, step, table, table_bits, n - k, cos_out + k,
                                 sin_out + k);
}

TWIDDC_TARGET_AVX2 void mul_shift_narrow_avx2(const std::int64_t* x,
                                              const std::int32_t* m, std::size_t n,
                                              int shift, int bits,
                                              fixed::Rounding rounding,
                                              fixed::Overflow overflow,
                                              std::int64_t* out) {
  const __m256i round_add = rounding == fixed::Rounding::kNearest && shift > 0
                                ? _mm256_set1_epi64x(std::int64_t{1} << (shift - 1))
                                : _mm256_setzero_si256();
  const bool saturate = bits != 0 && overflow == fixed::Overflow::kSaturate;
  const bool wrap = bits != 0 && overflow == fixed::Overflow::kWrap;
  const __m256i sat_hi = _mm256_set1_epi64x(bits ? fixed::max_for_bits(bits) : 0);
  const __m256i sat_lo = _mm256_set1_epi64x(bits ? fixed::min_for_bits(bits) : 0);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + k));
    const __m256i vm =
        _mm256_cvtepi32_epi64(_mm_loadu_si128(reinterpret_cast<const __m128i*>(m + k)));
    __m256i v = _mm256_mul_epi32(vx, vm);
    if (shift > 0) {
      v = _mm256_add_epi64(v, round_add);
      v = sra_epi64(v, shift);
    }
    if (saturate) {
      v = _mm256_blendv_epi8(v, sat_hi, _mm256_cmpgt_epi64(v, sat_hi));
      v = _mm256_blendv_epi8(v, sat_lo, _mm256_cmpgt_epi64(sat_lo, v));
    } else if (wrap) {
      const int ws = 64 - bits;
      v = sra_epi64(_mm256_slli_epi64(v, ws), ws);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k), v);
  }
  mul_shift_narrow_scalar(x + k, m + k, n - k, shift, bits, rounding, overflow, out + k);
}

/// 8-lane mixer rail kernel.  AVX-512F has the 64-bit arithmetic right shift
/// and 64-bit min/max that AVX2 lacks, so both the rounding shift and the
/// saturation are single instructions per step.
TWIDDC_TARGET_AVX512 void mul_shift_narrow_avx512(const std::int64_t* x,
                                                  const std::int32_t* m, std::size_t n,
                                                  int shift, int bits,
                                                  fixed::Rounding rounding,
                                                  fixed::Overflow overflow,
                                                  std::int64_t* out) {
  const __m512i round_add = rounding == fixed::Rounding::kNearest && shift > 0
                                ? _mm512_set1_epi64(std::int64_t{1} << (shift - 1))
                                : _mm512_setzero_si512();
  const bool saturate = bits != 0 && overflow == fixed::Overflow::kSaturate;
  const bool wrap = bits != 0 && overflow == fixed::Overflow::kWrap;
  const __m512i sat_hi = _mm512_set1_epi64(bits ? fixed::max_for_bits(bits) : 0);
  const __m512i sat_lo = _mm512_set1_epi64(bits ? fixed::min_for_bits(bits) : 0);
  const __m128i vshift = _mm_cvtsi32_si128(shift);
  const __m128i vwrap = _mm_cvtsi32_si128(bits ? 64 - bits : 0);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m512i vx = _mm512_loadu_si512(x + k);
    const __m512i vm =
        _mm512_cvtepi32_epi64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(m + k)));
    __m512i v = _mm512_mul_epi32(vx, vm);
    if (shift > 0) {
      v = _mm512_add_epi64(v, round_add);
      v = _mm512_sra_epi64(v, vshift);
    }
    if (saturate) {
      v = _mm512_min_epi64(v, sat_hi);
      v = _mm512_max_epi64(v, sat_lo);
    } else if (wrap) {
      v = _mm512_sra_epi64(_mm512_sll_epi64(v, vwrap), vwrap);
    }
    _mm512_storeu_si512(out + k, v);
  }
  mul_shift_narrow_scalar(x + k, m + k, n - k, shift, bits, rounding, overflow, out + k);
}

}  // namespace
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // TWIDDC_X86_TIERS

// ------------------------------------------------------ AArch64 NEON bodies

#if defined(TWIDDC_SIMD_NEON)
namespace {

// Two int64 lanes per q-register.  Only the narrow path is profitable on
// NEON: vmull_s32 is the exact 32x32->64 multiply, and both operands are
// proven to fit int32, so vmovn_s64 (keep the low word) loses nothing.  A
// full 64x64 low-half emulation needs four vmulls plus shuffles and loses
// to the scalar loop, so the wide case stays scalar.
std::int64_t dot_i64_neon(const std::int64_t* a, const std::int64_t* b, std::size_t n) {
  uint64x2_t acc0 = vdupq_n_u64(0);
  uint64x2_t acc1 = vdupq_n_u64(0);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const int32x2_t a0 = vmovn_s64(vld1q_s64(a + j));
    const int32x2_t b0 = vmovn_s64(vld1q_s64(b + j));
    const int32x2_t a1 = vmovn_s64(vld1q_s64(a + j + 2));
    const int32x2_t b1 = vmovn_s64(vld1q_s64(b + j + 2));
    acc0 = vaddq_u64(acc0, vreinterpretq_u64_s64(vmull_s32(a0, b0)));
    acc1 = vaddq_u64(acc1, vreinterpretq_u64_s64(vmull_s32(a1, b1)));
  }
  const uint64x2_t acc = vaddq_u64(acc0, acc1);
  std::uint64_t sum = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
  for (; j < n; ++j)
    sum += static_cast<std::uint64_t>(a[j]) * static_cast<std::uint64_t>(b[j]);
  return static_cast<std::int64_t>(sum);
}

void mul_shift_narrow_neon(const std::int64_t* x, const std::int32_t* m, std::size_t n,
                           int shift, int bits, fixed::Rounding rounding,
                           fixed::Overflow overflow, std::int64_t* out) {
  const int64x2_t round_add = rounding == fixed::Rounding::kNearest && shift > 0
                                  ? vdupq_n_s64(std::int64_t{1} << (shift - 1))
                                  : vdupq_n_s64(0);
  // vshlq_s64 by a negative count is the arithmetic right shift NEON
  // spells differently from x86.
  const int64x2_t shr = vdupq_n_s64(-shift);
  const bool saturate = bits != 0 && overflow == fixed::Overflow::kSaturate;
  const bool wrap = bits != 0 && overflow == fixed::Overflow::kWrap;
  const int64x2_t sat_hi = vdupq_n_s64(bits ? fixed::max_for_bits(bits) : 0);
  const int64x2_t sat_lo = vdupq_n_s64(bits ? fixed::min_for_bits(bits) : 0);
  const int64x2_t wrap_l = vdupq_n_s64(bits ? 64 - bits : 0);
  const int64x2_t wrap_r = vdupq_n_s64(bits ? bits - 64 : 0);
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    // x fits int32 (narrow_ok), so the low words carry the full value and
    // vmull_s32 is the exact product.
    const int32x2_t x32 = vmovn_s64(vld1q_s64(x + k));
    const int32x2_t m32 = vld1_s32(m + k);
    int64x2_t v = vmull_s32(x32, m32);
    if (shift > 0) {
      v = vaddq_s64(v, round_add);
      v = vshlq_s64(v, shr);
    }
    if (saturate) {
      v = vbslq_s64(vcgtq_s64(v, sat_hi), sat_hi, v);
      v = vbslq_s64(vcgtq_s64(sat_lo, v), sat_lo, v);
    } else if (wrap) {
      v = vshlq_s64(vshlq_s64(v, wrap_l), wrap_r);
    }
    vst1q_s64(out + k, v);
  }
  mul_shift_narrow_scalar(x + k, m + k, n - k, shift, bits, rounding, overflow, out + k);
}

}  // namespace
#endif  // TWIDDC_SIMD_NEON

// ------------------------------------------------------------- dispatchers

std::int64_t dot_i64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
                     bool narrow_ok) {
#if defined(TWIDDC_X86_TIERS)
  switch (tier()) {
    case Tier::kAvx512:
      if (n >= 16) return dot_i64_avx512(a, b, n, narrow_ok);
      [[fallthrough]];
    case Tier::kAvx2:
      if (n >= 8) return dot_i64_avx2(a, b, n, narrow_ok);
      break;
    case Tier::kBaseline:
      break;
  }
#elif defined(TWIDDC_SIMD_NEON)
  if (enabled() && narrow_ok && n >= 8) return dot_i64_neon(a, b, n);
#endif
  (void)narrow_ok;
  return dot_i64_scalar(a, b, n);
}

std::uint32_t lut_sincos_block(std::uint32_t phase, std::uint32_t step,
                               const std::int32_t* table, int table_bits,
                               std::size_t n, std::int32_t* cos_out,
                               std::int32_t* sin_out) {
#if defined(TWIDDC_X86_TIERS)
  switch (tier()) {
    case Tier::kAvx512:
      if (n >= 32)
        return lut_sincos_avx512(phase, step, table, table_bits, n, cos_out, sin_out);
      [[fallthrough]];
    case Tier::kAvx2:
      if (n >= 16)
        return lut_sincos_avx2(phase, step, table, table_bits, n, cos_out, sin_out);
      break;
    case Tier::kBaseline:
      break;
  }
#endif
  return lut_sincos_block_scalar(phase, step, table, table_bits, n, cos_out, sin_out);
}

void mul_shift_narrow_block(const std::int64_t* x, const std::int32_t* m,
                            std::size_t n, int shift, int bits,
                            fixed::Rounding rounding, fixed::Overflow overflow,
                            bool narrow_ok, std::int64_t* out) {
  if (narrow_ok) {
#if defined(TWIDDC_X86_TIERS)
    switch (tier()) {
      case Tier::kAvx512:
        if (n >= 16)
          return mul_shift_narrow_avx512(x, m, n, shift, bits, rounding, overflow, out);
        [[fallthrough]];
      case Tier::kAvx2:
        if (n >= 8)
          return mul_shift_narrow_avx2(x, m, n, shift, bits, rounding, overflow, out);
        break;
      case Tier::kBaseline:
        break;
    }
#elif defined(TWIDDC_SIMD_NEON)
    if (enabled() && n >= 8)
      return mul_shift_narrow_neon(x, m, n, shift, bits, rounding, overflow, out);
#endif
  }
  mul_shift_narrow_scalar(x, m, n, shift, bits, rounding, overflow, out);
}

}  // namespace twiddc::simd
