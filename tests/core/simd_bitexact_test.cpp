// SIMD-vs-scalar bit-exactness over randomized topologies, and the tier
// dispatch itself.
//
// Every block kernel behind src/common/simd.hpp must produce int64 outputs
// identical to (a) the per-sample push() path and (b) every other kernel
// tier in the same binary -- AVX-512, AVX2 under the AVX-512 cap
// (simd::ScopedAvx512(false)) and the baseline (simd::set_enabled(false))
// -- over randomized CIC orders and decimations, FIR lengths including
// remainder tails, and odd block sizes in 1..257 that exercise every
// vector-remainder combination.  Every x86-64 build carries all three
// tiers, whatever its -march; a tier the host lacks runs the next tier
// down, so an AVX2-only host diffs two tiers and a host without AVX2 one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/simd.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/core/pipeline.hpp"
#include "src/dsp/cic.hpp"
#include "src/dsp/fir.hpp"
#include "src/dsp/mixer.hpp"
#include "src/dsp/nco.hpp"
#include "src/dsp/signal.hpp"
#include "tests/core/simd_tiers.hpp"

namespace twiddc::core {
namespace {

using test::kTiers;
using test::ScopedTier;
using test::Tier;

/// Splits [0, total) into pseudo-random chunk lengths in [1, 257], feeding
/// each chunk to `fn(span)` -- exercises partial-tail state carry.
template <typename Fn>
void feed_odd_blocks(Rng& rng, const std::vector<std::int64_t>& in, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < in.size()) {
    const auto len = std::min<std::size_t>(
        static_cast<std::size_t>(rng.uniform_int(1, 257)), in.size() - pos);
    fn(std::span<const std::int64_t>(in.data() + pos, len));
    pos += len;
  }
}

std::vector<std::int64_t> random_signal(Rng& rng, std::size_t n, int bits) {
  std::vector<std::int64_t> v(n);
  const std::int64_t amp = (std::int64_t{1} << (bits - 1)) - 1;
  for (auto& x : v) x = rng.uniform_int(-amp, amp);
  return v;
}

// ------------------------------------------------------------------- CIC

TEST(SimdBitExact, CicRandomTopologies) {
  Rng rng(0xc1c);
  for (int trial = 0; trial < 24; ++trial) {
    dsp::CicDecimator::Config cfg;
    cfg.stages = static_cast<int>(rng.uniform_int(1, 6));
    cfg.decimation = static_cast<int>(rng.uniform_int(1, 40));
    cfg.diff_delay = static_cast<int>(rng.uniform_int(1, 2));
    cfg.input_bits = 14;
    if (trial % 3 == 0) {
      cfg.prune_shifts.assign(static_cast<std::size_t>(cfg.stages), 0);
      for (auto& s : cfg.prune_shifts) s = static_cast<int>(rng.uniform_int(0, 3));
    }
    const auto input = random_signal(rng, 4096, cfg.input_bits);

    dsp::CicDecimator by_push(cfg);
    std::vector<std::int64_t> want;
    for (std::int64_t x : input) {
      if (auto y = by_push.push(x)) want.push_back(*y);
    }

    for (const Tier& tier : kTiers) {
      ScopedTier guard(tier);
      dsp::CicDecimator by_block(cfg);
      std::vector<std::int64_t> got;
      feed_odd_blocks(rng, input, [&](std::span<const std::int64_t> chunk) {
        by_block.process_block(chunk, got);
      });
      ASSERT_EQ(got, want) << "trial " << trial << " N=" << cfg.stages
                           << " R=" << cfg.decimation << " tier=" << tier.name;
    }
  }
}

// ------------------------------------------------------------------- FIR

TEST(SimdBitExact, FirDecimatorRandomShapes) {
  Rng rng(0xf11);
  for (int taps_n : {1, 2, 3, 5, 21, 63, 124, 125}) {
    for (int decim : {1, 2, 3, 8}) {
      std::vector<std::int64_t> taps(static_cast<std::size_t>(taps_n));
      for (auto& t : taps) t = rng.uniform_int(-32768, 32767);
      const auto input = random_signal(rng, 2048, 16);

      dsp::FirDecimator<std::int64_t> by_push(taps, decim);
      std::vector<std::int64_t> want;
      for (std::int64_t x : input) {
        if (auto y = by_push.push(x)) want.push_back(*y);
      }

      for (const Tier& tier : kTiers) {
        ScopedTier guard(tier);
        dsp::FirDecimator<std::int64_t> by_block(taps, decim);
        std::vector<std::int64_t> got;
        feed_odd_blocks(rng, input, [&](std::span<const std::int64_t> chunk) {
          by_block.process_block(chunk, got);
        });
        ASSERT_EQ(got, want) << "taps=" << taps_n << " D=" << decim
                             << " tier=" << tier.name;
      }
    }
  }
}

TEST(SimdBitExact, PolyphaseRandomShapes) {
  Rng rng(0xf22);
  for (int taps_n : {1, 3, 7, 21, 63, 124, 125}) {
    for (int decim : {1, 2, 5, 8, 16}) {
      std::vector<std::int64_t> taps(static_cast<std::size_t>(taps_n));
      for (auto& t : taps) t = rng.uniform_int(-32768, 32767);
      const auto input = random_signal(rng, 2048, 16);

      dsp::PolyphaseFirDecimator<std::int64_t> by_push(taps, decim);
      std::vector<std::int64_t> want;
      for (std::int64_t x : input) {
        if (auto y = by_push.push(x)) want.push_back(*y);
      }

      for (const Tier& tier : kTiers) {
        ScopedTier guard(tier);
        dsp::PolyphaseFirDecimator<std::int64_t> by_block(taps, decim);
        std::vector<std::int64_t> got;
        feed_odd_blocks(rng, input, [&](std::span<const std::int64_t> chunk) {
          by_block.process_block(chunk, got);
        });
        ASSERT_EQ(got, want) << "taps=" << taps_n << " D=" << decim
                             << " tier=" << tier.name;
      }
    }
  }
}

TEST(SimdBitExact, PolyphaseSurvivesPushBlockInterleaving) {
  // Mixing per-sample and block calls must leave identical state: the block
  // path reconstructs its flat window from the per-phase rings every call.
  Rng rng(0xf33);
  std::vector<std::int64_t> taps(125);
  for (auto& t : taps) t = rng.uniform_int(-32768, 32767);
  const auto input = random_signal(rng, 6000, 16);

  dsp::PolyphaseFirDecimator<std::int64_t> reference(taps, 8);
  std::vector<std::int64_t> want;
  for (std::int64_t x : input) {
    if (auto y = reference.push(x)) want.push_back(*y);
  }

  dsp::PolyphaseFirDecimator<std::int64_t> mixed(taps, 8);
  std::vector<std::int64_t> got;
  std::size_t pos = 0;
  bool use_push = false;
  while (pos < input.size()) {
    const auto len = std::min<std::size_t>(
        static_cast<std::size_t>(rng.uniform_int(1, 301)), input.size() - pos);
    if (use_push) {
      for (std::size_t i = 0; i < len; ++i) {
        if (auto y = mixed.push(input[pos + i])) got.push_back(*y);
      }
    } else {
      mixed.process_block(std::span<const std::int64_t>(input.data() + pos, len), got);
    }
    use_push = !use_push;
    pos += len;
  }
  EXPECT_EQ(got, want);
}

TEST(SimdBitExact, FirWideTapsUseExactWidePath) {
  // Taps beyond int32 force the emulated 64-bit multiply path; it must agree
  // with push() exactly.
  Rng rng(0xf44);
  std::vector<std::int64_t> taps(33);
  for (auto& t : taps)
    t = rng.uniform_int(-(std::int64_t{1} << 40), (std::int64_t{1} << 40));
  const auto input = random_signal(rng, 1024, 12);

  dsp::FirDecimator<std::int64_t> by_push(taps, 4);
  std::vector<std::int64_t> want;
  for (std::int64_t x : input) {
    if (auto y = by_push.push(x)) want.push_back(*y);
  }
  dsp::FirDecimator<std::int64_t> by_block(taps, 4);
  std::vector<std::int64_t> got;
  by_block.process_block(input, got);
  EXPECT_EQ(got, want);
}

// ------------------------------------------------------------- NCO + mixer

TEST(SimdBitExact, NcoBlockMatchesPerSample) {
  for (int table_bits : {4, 10, 12}) {
    for (const Tier& tier : kTiers) {
      ScopedTier guard(tier);
      dsp::Nco::Config nc;
      nc.freq_hz = 1.234567e6;
      nc.sample_rate_hz = 10.0e6;
      nc.table_bits = table_bits;
      dsp::Nco by_next(nc);
      dsp::Nco by_block(nc);
      const std::size_t n = 1000;  // odd remainder after the 8-lane body
      std::vector<std::int32_t> cos_v(n);
      std::vector<std::int32_t> sin_v(n);
      by_block.next_block(cos_v, sin_v);
      for (std::size_t k = 0; k < n; ++k) {
        const dsp::SinCos sc = by_next.next();
        ASSERT_EQ(cos_v[k], sc.cos) << "k=" << k << " tb=" << table_bits
                                    << " tier=" << tier.name;
        ASSERT_EQ(sin_v[k], sc.sin) << "k=" << k << " tb=" << table_bits
                                    << " tier=" << tier.name;
      }
    }
  }
}

TEST(SimdBitExact, MixerBlockMatchesPerSample) {
  Rng rng(0x317);
  for (auto rounding : {fixed::Rounding::kTruncate, fixed::Rounding::kNearest}) {
    dsp::ComplexMixer::Config mc;
    mc.input_bits = 14;
    mc.nco_amplitude_bits = 16;
    mc.output_bits = 16;
    mc.rounding = rounding;
    dsp::ComplexMixer mixer(mc);

    const std::size_t n = 517;
    const auto x = random_signal(rng, n, mc.input_bits);
    std::vector<std::int32_t> cos_v(n);
    std::vector<std::int32_t> sin_v(n);
    const std::int32_t amp = (1 << 15) - 1;
    for (std::size_t k = 0; k < n; ++k) {
      cos_v[k] = static_cast<std::int32_t>(rng.uniform_int(-amp, amp));
      sin_v[k] = static_cast<std::int32_t>(rng.uniform_int(-amp, amp));
    }

    for (const Tier& tier : kTiers) {
      ScopedTier guard(tier);
      std::vector<std::int64_t> out_i(n);
      std::vector<std::int64_t> out_q(n);
      mixer.mix_block(x, cos_v, sin_v, out_i, out_q);
      for (std::size_t k = 0; k < n; ++k) {
        const dsp::Iq want = mixer.mix(x[k], cos_v[k], sin_v[k]);
        ASSERT_EQ(out_i[k], want.i) << "k=" << k << " tier=" << tier.name;
        ASSERT_EQ(out_q[k], want.q) << "k=" << k << " tier=" << tier.name;
      }
    }
  }
}

// ------------------------------------------------------------- range scans

TEST(SimdBitExact, RangeScansMatchScalar) {
  // minmax_i64 is every backend's input range check and all_fit_i32 picks
  // the FIR's multiply; both are vectorised per tier.  Each extreme sits at
  // the first element, the last, and the first lane of the 4- and 8-lane
  // tails, against a background that fits int32.
  constexpr std::int64_t kInt32Min = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
  const std::int64_t extremes[] = {std::numeric_limits<std::int64_t>::min(),
                                   std::numeric_limits<std::int64_t>::max(),
                                   kInt32Min,
                                   kInt32Max,
                                   kInt32Min - 1,
                                   kInt32Max + 1};
  Rng rng(0x5ca7);
  for (const Tier& tier : kTiers) {
    ScopedTier guard(tier);
    for (std::size_t n = 1; n <= 257; ++n) {
      const auto background = random_signal(rng, n, 20);
      for (const std::int64_t extreme : extremes) {
        for (const std::size_t at : {std::size_t{0}, n - 1, n & ~std::size_t{7},
                                     n & ~std::size_t{3}}) {
          if (at >= n) continue;
          std::vector<std::int64_t> v = background;
          v[at] = extreme;
          std::int64_t want_lo = v[0];
          std::int64_t want_hi = v[0];
          bool want_fit = true;
          for (const std::int64_t x : v) {
            want_lo = std::min(want_lo, x);
            want_hi = std::max(want_hi, x);
            want_fit = want_fit && x >= kInt32Min && x <= kInt32Max;
          }
          std::int64_t lo = 0;
          std::int64_t hi = 0;
          simd::minmax_i64(v.data(), n, lo, hi);
          ASSERT_EQ(lo, want_lo) << "n=" << n << " at=" << at << " x=" << extreme
                                 << " tier=" << tier.name;
          ASSERT_EQ(hi, want_hi) << "n=" << n << " at=" << at << " x=" << extreme
                                 << " tier=" << tier.name;
          ASSERT_EQ(simd::all_fit_i32(v.data(), n), want_fit)
              << "n=" << n << " at=" << at << " x=" << extreme << " tier=" << tier.name;
        }
      }
    }
  }
}

// ---------------------------------------------------------------- dispatch

TEST(SimdDispatch, DefaultBuildRunsTheBestTierTheCpuHas) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "this CPU has no AVX2";
  const bool avx512 =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl");
  {
    simd::ScopedAvx512 cap(true);
    EXPECT_STREQ(simd::active_path(), avx512 ? "avx512" : "avx2");
  }
  {
    simd::ScopedAvx512 cap(false);
    EXPECT_STREQ(simd::active_path(), "avx2");
  }
  {
    simd::ScopedEnable off(false);
    EXPECT_STREQ(simd::active_path(), "scalar");
  }
#else
  GTEST_SKIP() << "the AVX2 and AVX-512 tiers exist on x86-64 only";
#endif
}

// ----------------------------------------------------------- whole pipeline

TEST(SimdBitExact, Figure1ChainSimdVsScalarVsPush) {
  const auto cfg = DdcConfig::reference(10.0e6);
  const auto plan = ChainPlan::figure1(cfg, DatapathSpec::wide16());
  const auto input = dsp::quantize_signal(
      dsp::make_tone(10.0025e6, cfg.input_rate_hz, 2688 * 6, 0.7), 12);

  DdcPipeline by_push(plan);
  std::vector<IqSample> want;
  for (std::int64_t x : input) {
    if (auto y = by_push.push(x)) want.push_back(*y);
  }

  Rng rng(0x9f1);
  for (const Tier& tier : kTiers) {
    ScopedTier guard(tier);
    DdcPipeline by_block(plan);
    std::vector<IqSample> got;
    feed_odd_blocks(rng, input, [&](std::span<const std::int64_t> chunk) {
      by_block.process_block(chunk, got);
    });
    ASSERT_EQ(got.size(), want.size()) << "tier=" << tier.name;
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k].i, want[k].i) << "k=" << k << " tier=" << tier.name;
      ASSERT_EQ(got[k].q, want[k].q) << "k=" << k << " tier=" << tier.name;
    }
  }
}

}  // namespace
}  // namespace twiddc::core
