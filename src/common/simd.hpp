// twiddc::simd -- portable SIMD shim for the block hot-path kernels.
//
// Every kernel runs in one of three tiers, chosen at run time:
//
//   * baseline: scalar bodies, written as tight loops the compiler
//     auto-vectorises for the build's own -march (SSE2 on a default x86-64
//     build), plus the AArch64 NEON bodies where they exist;
//   * AVX2 and AVX-512: compiled into every x86-64 build through per-function
//     target attributes, and picked once from cpuid.
//
// The intrinsic kernels (dot_i64, lut_sincos_block, mul_shift_narrow_block)
// have one body per tier each, all in src/common/simd.cpp.  Plain loops
// elsewhere in the library take the same tiers through run_tiered(): the
// loop is written once and the compiler vectorises one instance of it per
// tier.
//
// Every tier is *bit-exact* for the fixed-point chain: all accumulation is
// two's-complement (mod 2^64) where reordering is an identity, 64-bit
// multiplies either use the 32x32->64 instruction when both operands are
// proven to fit 32 bits or an exact low-64 emulation, and shifts/saturation
// reproduce fixed::shift_right / fixed::narrow operation by operation.
//
// Two process-wide switches pick a lower tier at run time so the test suite
// can diff the tiers in one binary: set_enabled(false) selects the baseline
// for every kernel, and set_avx512_enabled(false) caps the tier at AVX2.
// They are not meant for production use.
#pragma once

#include <cstdint>
#include <cstddef>

#include "src/fixed/qformat.hpp"

// The AVX2 and AVX-512 tiers exist on x86-64 under compilers with
// per-function target attributes.  The AVX-512 feature set is F+DQ+BW+VL --
// the Skylake-SP/x86-64-v4 baseline -- so `_mm512_mullo_epi64` (DQ) and the
// 256-bit masked ops (VL) are available.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TWIDDC_X86_TIERS 1
#define TWIDDC_TARGET_AVX2 __attribute__((target("avx2")))
#define TWIDDC_TARGET_AVX512 \
  __attribute__((target("avx2,avx512f,avx512dq,avx512bw,avx512vl")))
#endif

// Marks a loop body, a function or a lambda, that must be inlined into each
// tier's instance to be compiled for that tier's registers.
#if defined(__GNUC__) || defined(__clang__)
#define TWIDDC_ALWAYS_INLINE __attribute__((always_inline))
#else
#define TWIDDC_ALWAYS_INLINE
#endif

namespace twiddc::simd {

/// Runtime kill switch: when false every kernel runs its baseline tier.
/// Used by the bit-exactness tests to diff the tiers within one binary.
bool enabled();
void set_enabled(bool on);

/// Tier cap: when false, dispatch stops at the AVX2 tier even on AVX-512
/// hardware, so the tests can diff the two wide tiers on one machine.
/// Defaults to on; the kill switch overrides it.
bool avx512_enabled();
void set_avx512_enabled(bool on);

enum class Tier { kBaseline, kAvx2, kAvx512 };

/// The tier every kernel dispatches to right now: the best the CPU has
/// (cpuid, probed once: `avx2`, and F+DQ+BW+VL for AVX-512), capped by the
/// two switches.  Always kBaseline off x86-64.
Tier tier();

/// Name of tier(): "avx512", "avx2", "neon" (baseline with the AArch64
/// bodies) or "scalar".  Bench lines report it, so a trajectory captured on
/// a lower tier cannot masquerade as a wide-tier measurement.
const char* active_path();

/// RAII helper for tests: forces the given kill-switch state within a scope.
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on) : prev_(enabled()) { set_enabled(on); }
  ~ScopedEnable() { set_enabled(prev_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool prev_;
};

/// RAII helper for tests: forces the AVX-512 tier cap within a scope.
class ScopedAvx512 {
 public:
  explicit ScopedAvx512(bool on) : prev_(avx512_enabled()) { set_avx512_enabled(on); }
  ~ScopedAvx512() { set_avx512_enabled(prev_); }
  ScopedAvx512(const ScopedAvx512&) = delete;
  ScopedAvx512& operator=(const ScopedAvx512&) = delete;

 private:
  bool prev_;
};

// ------------------------------------------------------- tiered plain loops

namespace detail {
template <typename Loop>
void run_baseline(const Loop& loop) {
  loop();
}
#if defined(TWIDDC_X86_TIERS)
template <typename Loop>
TWIDDC_TARGET_AVX2 void run_avx2(const Loop& loop) {
  loop();
}
template <typename Loop>
TWIDDC_TARGET_AVX512 void run_avx512(const Loop& loop) {
  loop();
}
#endif
}  // namespace detail

/// Runs `loop`, a TWIDDC_ALWAYS_INLINE lambda holding plain loops, from its
/// instance for tier().  Everything the lambda calls on its hot path must be
/// TWIDDC_ALWAYS_INLINE too, or it keeps the baseline instructions.  Call it
/// once per block, not once per sample.
template <typename Loop>
void run_tiered(const Loop& loop) {
#if defined(TWIDDC_X86_TIERS)
  switch (tier()) {
    case Tier::kAvx512: return detail::run_avx512(loop);
    case Tier::kAvx2: return detail::run_avx2(loop);
    case Tier::kBaseline: break;
  }
#endif
  detail::run_baseline(loop);
}

// ------------------------------------------------------------- block scans

/// Min/max of a block in one pass (every backend's input range check).
/// n must be >= 1.
void minmax_i64(const std::int64_t* v, std::size_t n, std::int64_t& lo,
                std::int64_t& hi);

/// True when every element of v[0..n) fits a signed 32-bit field (the
/// precondition for the single-instruction 32x32->64 multiply path).
bool all_fit_i32(const std::int64_t* v, std::size_t n);

// --------------------------------------------------------------- dot product
//
// y = sum_j a[j] * b[j] over int64, accumulated mod 2^64 (two's complement;
// order-independent, hence SIMD-reorder-safe and bit-exact vs any scalar
// loop).  `narrow_ok` asserts every a[j] and b[j] fits int32, enabling the
// one-multiply path; otherwise an exact low-64 multiply emulation runs.
// Odd tails stay on the vector path via masked loads, so FIR and polyphase
// windows of any length run vector-only.

inline std::int64_t dot_i64_scalar(const std::int64_t* a, const std::int64_t* b,
                                   std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t j = 0; j < n; ++j)
    acc += static_cast<std::uint64_t>(a[j]) * static_cast<std::uint64_t>(b[j]);
  return static_cast<std::int64_t>(acc);
}

std::int64_t dot_i64(const std::int64_t* a, const std::int64_t* b, std::size_t n,
                     bool narrow_ok);

// -------------------------------------------------- quarter-LUT sin/cos fill
//
// Fills cos_out/sin_out with the quarter-wave LUT expansion of an
// arithmetically advancing 32-bit phase (phase, phase+step, ...), exactly
// mirroring dsp::lut_sincos's quadrant logic.  `table` has 2^table_bits
// entries.  Returns the phase after n steps.

std::uint32_t lut_sincos_block(std::uint32_t phase, std::uint32_t step,
                               const std::int32_t* table, int table_bits,
                               std::size_t n, std::int32_t* cos_out,
                               std::int32_t* sin_out);

// ----------------------------------------- mixer multiply / shift / narrow
//
// out[k] = narrow(shift_right(x[k] * m[k], shift, rounding), bits, overflow)
// -- one rail of the complex mixer over planar buffers.  Precondition for
// the vector paths: |x[k]| and |m[k]| fit int32 (the pipeline validates
// inputs against front_end.input_bits <= 32 and NCO amplitudes are <= 24
// bits); the kernel falls back to scalar otherwise via `narrow_ok`.

void mul_shift_narrow_block(const std::int64_t* x, const std::int32_t* m,
                            std::size_t n, int shift, int bits,
                            fixed::Rounding rounding, fixed::Overflow overflow,
                            bool narrow_ok, std::int64_t* out);

}  // namespace twiddc::simd
