#include "src/dsp/cic.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/dsp/moving_average.hpp"
#include "src/fixed/qformat.hpp"

namespace twiddc::dsp {
namespace {

CicDecimator::Config cfg(int stages, int decimation, int input_bits = 12) {
  CicDecimator::Config c;
  c.stages = stages;
  c.decimation = decimation;
  c.input_bits = input_bits;
  return c;
}

TEST(CicConfig, RejectsInvalidParameters) {
  EXPECT_THROW(CicDecimator(cfg(0, 16)), twiddc::ConfigError);
  EXPECT_THROW(CicDecimator(cfg(9, 16)), twiddc::ConfigError);
  EXPECT_THROW(CicDecimator(cfg(2, 0)), twiddc::ConfigError);
  EXPECT_THROW(CicDecimator(cfg(2, 16, 0)), twiddc::ConfigError);
  EXPECT_THROW(CicDecimator(cfg(2, 16, 33)), twiddc::ConfigError);
  auto c = cfg(2, 16);
  c.diff_delay = 3;
  EXPECT_THROW((CicDecimator{c}), twiddc::ConfigError);
  auto c2 = cfg(2, 16);
  c2.prune_shifts = {1};  // wrong size: needs one per stage
  EXPECT_THROW((CicDecimator{c2}), twiddc::ConfigError);
}

TEST(CicConfig, PaperChainWidths) {
  CicDecimator cic2(cfg(2, 16, 12));
  EXPECT_EQ(cic2.growth_bits(), 8);
  EXPECT_EQ(cic2.register_bits(), 20);
  EXPECT_EQ(cic2.gain(), 256);

  CicDecimator cic5(cfg(5, 21, 12));
  EXPECT_EQ(cic5.growth_bits(), 22);
  EXPECT_EQ(cic5.register_bits(), 34);
  EXPECT_EQ(cic5.gain(), 4084101);
}

TEST(CicRate, OneOutputPerDecimationInputs) {
  CicDecimator cic(cfg(2, 16));
  int outputs = 0;
  for (int i = 0; i < 16 * 25; ++i) {
    if (cic.push(100)) ++outputs;
  }
  EXPECT_EQ(outputs, 25);
  EXPECT_EQ(cic.samples_in(), 400u);
  EXPECT_EQ(cic.samples_out(), 25u);
}

TEST(CicDcGain, StepSettlesToGainTimesInput) {
  // After the filter fills, a constant input x yields gain()*x.
  for (int stages : {1, 2, 5}) {
    for (int decim : {4, 16, 21}) {
      CicDecimator cic(cfg(stages, decim));
      std::int64_t last = 0;
      for (int i = 0; i < decim * (stages + 3); ++i) {
        if (auto y = cic.push(7)) last = *y;
      }
      EXPECT_EQ(last, cic.gain() * 7) << "N=" << stages << " R=" << decim;
    }
  }
}

TEST(CicImpulse, DecimatedResponseSumsToGainOverR) {
  // Injecting a single impulse and summing the *decimated* outputs samples
  // one polyphase component of the underlying boxcar^N response.  Because a
  // boxcar nulls every non-zero R-th root of unity, each polyphase component
  // sums to exactly H(1)/R = R^(N-1).
  CicDecimator cic(cfg(5, 21));
  std::int64_t sum = 0;
  for (int i = 0; i < 21 * 12; ++i) {
    if (auto y = cic.push(i == 0 ? 1 : 0)) sum += *y;
  }
  EXPECT_EQ(sum, cic.gain() / 21);  // 21^4

  // The full DC gain appears when every input of a decimation window is 1.
  CicDecimator dc(cfg(5, 21));
  std::int64_t last = 0;
  for (int i = 0; i < 21 * 12; ++i) {
    if (auto y = dc.push(1)) last = *y;
  }
  EXPECT_EQ(last, dc.gain());
}

TEST(CicImpulse, Cic1IsBoxcar) {
  // One stage with R=M=1... rather: N=1, R=4 decimated impulse response is a
  // single 1 in each of the first outputs covering the boxcar of length 4.
  CicDecimator cic(cfg(1, 4));
  std::vector<std::int64_t> outs;
  for (int i = 0; i < 16; ++i) {
    if (auto y = cic.push(i == 0 ? 1 : 0)) outs.push_back(*y);
  }
  ASSERT_EQ(outs.size(), 4u);
  EXPECT_EQ(outs[0], 1);  // impulse is inside the first boxcar window
  EXPECT_EQ(outs[1], 0);
  EXPECT_EQ(outs[2], 0);
  EXPECT_EQ(outs[3], 0);
}

TEST(CicEquivalence, MatchesMovingAverageCascade) {
  // CIC(N,R) == N cascaded boxcars of length R + decimation by R: the core
  // identity behind the integrator/comb structure (Hogenauer).  Exact over
  // integers when no wrap occurs.
  Rng rng(42);
  for (int stages : {1, 2, 3, 5}) {
    for (int decim : {2, 5, 16, 21}) {
      CicDecimator cic(cfg(stages, decim, 16));
      MovingAverageCascade<std::int64_t> ma(stages, decim);
      for (int i = 0; i < decim * 40; ++i) {
        const std::int64_t x = rng.uniform_int(-32768, 32767);
        const auto a = cic.push(x);
        const auto b = ma.push(x);
        ASSERT_EQ(a.has_value(), b.has_value());
        if (a) { EXPECT_EQ(*a, *b) << "N=" << stages << " R=" << decim << " i=" << i; }
      }
    }
  }
}

TEST(CicWraparound, IntegratorOverflowIsHarmless) {
  // Force the integrators to wrap by using a small register width; as long
  // as the width >= output bound bits the outputs stay correct (two's-
  // complement magic the FPGA and ASIC implementations rely on).
  auto narrow = cfg(2, 16, 12);
  narrow.register_bits = 20;  // exactly input + growth
  CicDecimator reference(cfg(2, 16, 12));  // also 20, but via auto
  CicDecimator cic(narrow);
  Rng rng(43);
  for (int i = 0; i < 16 * 2000; ++i) {
    const std::int64_t x = rng.uniform_int(-2048, 2047);
    const auto a = cic.push(x);
    const auto b = reference.push(x);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) { EXPECT_EQ(*a, *b); }
  }
  // And the integrator state genuinely wrapped at some point for a biased
  // input; run DC at full scale long enough to guarantee overflow.
  CicDecimator dc(narrow);
  std::int64_t last = 0;
  for (int i = 0; i < 16 * 64; ++i) {
    if (auto y = dc.push(2047)) last = *y;
  }
  EXPECT_EQ(last, 2047 * 256);
}

TEST(CicWraparound, TooNarrowRegistersCorrupt) {
  // Negative control: one bit below the Hogenauer width must corrupt DC
  // settling for a full-scale input.
  auto too_narrow = cfg(2, 16, 12);
  too_narrow.register_bits = 19;
  CicDecimator cic(too_narrow);
  std::int64_t last = 0;
  for (int i = 0; i < 16 * 64; ++i) {
    if (auto y = cic.push(2047)) last = *y;
  }
  EXPECT_NE(last, 2047 * 256);
}

TEST(CicPruning, ShiftsReduceGainPredictably) {
  auto pruned = cfg(2, 16, 12);
  pruned.prune_shifts = {2, 1};  // total 3 bits
  CicDecimator cic(pruned);
  std::int64_t last = 0;
  for (int i = 0; i < 16 * 64; ++i) {
    if (auto y = cic.push(1024)) last = *y;
  }
  // DC settles near gain * x / 2^3 (within truncation error of the shifts).
  const double expect = 1024.0 * 256.0 / 8.0;
  EXPECT_NEAR(static_cast<double>(last), expect, expect * 0.01);
}

TEST(CicOutputBound, FullScaleNeverExceedsBound) {
  CicDecimator cic(cfg(2, 16, 12));
  const std::int64_t bound = cic.output_bound();
  EXPECT_EQ(bound, 256ll * 2048);
  Rng rng(44);
  for (int i = 0; i < 16 * 500; ++i) {
    const std::int64_t x = rng.uniform_int(-2048, 2047);
    if (auto y = cic.push(x)) { EXPECT_LE(std::abs(*y), bound); }
  }
}

TEST(CicReset, ClearsAllState) {
  CicDecimator cic(cfg(2, 16));
  for (int i = 0; i < 100; ++i) cic.push(500);
  cic.reset();
  EXPECT_EQ(cic.samples_in(), 0u);
  EXPECT_EQ(cic.samples_out(), 0u);
  // After reset an impulse behaves as from a fresh filter.
  CicDecimator fresh(cfg(2, 16));
  for (int i = 0; i < 16 * 8; ++i) {
    const std::int64_t x = i == 3 ? 1000 : 0;
    const auto a = cic.push(x);
    const auto b = fresh.push(x);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) { EXPECT_EQ(*a, *b); }
  }
}

TEST(CicProcess, BlockMatchesStreaming) {
  Rng rng(45);
  std::vector<std::int64_t> in(16 * 30);
  for (auto& v : in) v = rng.uniform_int(-2048, 2047);
  CicDecimator a(cfg(2, 16));
  CicDecimator b(cfg(2, 16));
  const auto block = a.process(in);
  std::vector<std::int64_t> streamed;
  for (auto x : in) {
    if (auto y = b.push(x)) streamed.push_back(*y);
  }
  EXPECT_EQ(block, streamed);
}

// ------------------------------------------------- non-recursive form

TEST(NonRecursiveCic, AcceptsUnprunedPowerOfTwoDecimationsOn32BitRegisters) {
  EXPECT_TRUE(NonRecursiveCic::accepts(cfg(2, 16)));
  EXPECT_TRUE(NonRecursiveCic::accepts(cfg(5, 1)));
  EXPECT_FALSE(NonRecursiveCic::accepts(cfg(5, 21)));
  auto pruned = cfg(2, 16);
  pruned.prune_shifts = {1, 1};
  EXPECT_FALSE(NonRecursiveCic::accepts(pruned));
  EXPECT_THROW(NonRecursiveCic{cfg(5, 21)}, twiddc::ConfigError);
  EXPECT_THROW(NonRecursiveCic{pruned}, twiddc::ConfigError);
  EXPECT_THROW(NonRecursiveCic{cfg(9, 16)}, twiddc::ConfigError);  // as CicDecimator

  EXPECT_THROW((void)NonRecursiveCic::accepts(cfg(9, 16)), twiddc::ConfigError);

  // The register must fit the 32-bit lanes.
  EXPECT_TRUE(NonRecursiveCic::accepts(cfg(2, 16, 24)));  // 32-bit automatic register
  EXPECT_FALSE(NonRecursiveCic::accepts(cfg(2, 16, 25)));
  auto wide = cfg(2, 16, 16);
  wide.register_bits = 32;
  EXPECT_TRUE(NonRecursiveCic::accepts(wide));
  wide.register_bits = 33;
  EXPECT_FALSE(NonRecursiveCic::accepts(wide));
  EXPECT_THROW(NonRecursiveCic{wide}, twiddc::ConfigError);
}

// Frequency-domain property: a tone near an alias null is strongly
// attenuated relative to a passband tone.
TEST(CicFrequency, AliasNullRejection) {
  const int decim = 16;
  const double fs = 64.512e6;
  auto run_tone = [&](double freq) {
    CicDecimator cic(cfg(2, decim, 14));
    double power = 0.0;
    int count = 0;
    const int n = decim * 4000;
    for (int i = 0; i < n; ++i) {
      const double ph = 2.0 * 3.14159265358979 * freq / fs * static_cast<double>(i);
      const auto x = static_cast<std::int64_t>(std::llround(8000.0 * std::sin(ph)));
      if (auto y = cic.push(x)) {
        // Skip the settling transient.
        if (++count > 16) power += static_cast<double>(*y) * static_cast<double>(*y);
      }
    }
    return power;
  };
  const double pass = run_tone(50.0e3);                 // passband
  const double null = run_tone(fs / decim);             // first alias null
  EXPECT_GT(pass / (null + 1.0), 1.0e6);                // > 60 dB rejection
}

// Parameterised sweep of configurations used by the various architecture
// models: automatic register sizing is always sufficient (no saturation
// deviation vs a 63-bit reference).
struct CicCase {
  int stages;
  int decimation;
  int input_bits;
};

class CicWidthSweepTest : public ::testing::TestWithParam<CicCase> {};

TEST_P(CicWidthSweepTest, AutoWidthMatchesWideReference) {
  const auto& p = GetParam();
  CicDecimator sized(cfg(p.stages, p.decimation, p.input_bits));
  auto wide_cfg = cfg(p.stages, p.decimation, p.input_bits);
  wide_cfg.register_bits = 63;
  CicDecimator wide(wide_cfg);
  Rng rng(static_cast<std::uint64_t>(p.stages * 1000 + p.decimation));
  const std::int64_t lim = fixed::max_for_bits(p.input_bits);
  for (int i = 0; i < p.decimation * 60; ++i) {
    const std::int64_t x = rng.uniform_int(-lim - 1, lim);
    const auto a = sized.push(x);
    const auto b = wide.push(x);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) { EXPECT_EQ(*a, *b); }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CicWidthSweepTest,
    ::testing::Values(CicCase{2, 16, 12}, CicCase{5, 21, 12}, CicCase{5, 21, 16},
                      CicCase{2, 16, 16}, CicCase{5, 64, 14}, CicCase{3, 8, 14},
                      CicCase{1, 2, 16}, CicCase{5, 8, 14}, CicCase{4, 32, 10}));

}  // namespace
}  // namespace twiddc::dsp
