// CIC forms: the non-recursive kernel (dsp::NonRecursiveCic) against the
// recursive oracle (dsp::CicDecimator::push), the fused executor that serves
// it against the staged DdcPipeline, and the form CompiledPlan picks.
//
// The CicFormSweep cases draw their geometries, and the kernel tier each
// runs in, from gtest's random seed.  It is 0 in a plain run, so ctest stays
// deterministic; under --gtest_shuffle every repeat draws new geometries and
// prints its seed, which reproduces a failure through --gtest_random_seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/plan_compiler.hpp"
#include "src/dsp/cic.hpp"
#include "src/dsp/fir_design.hpp"
#include "src/dsp/signal.hpp"
#include "src/fixed/qformat.hpp"
#include "tests/core/simd_tiers.hpp"

namespace twiddc::core {
namespace {

std::uint64_t sweep_seed() {
  return static_cast<std::uint64_t>(::testing::UnitTest::GetInstance()->random_seed());
}

bool is_power_of_two(int r) { return (r & (r - 1)) == 0; }

/// A decimation in [1, 4096]: a power of two, a prime, or anything.
int random_decimation(Rng& rng) {
  static const int kPrimes[] = {2, 3, 5, 7, 11, 13, 31, 61, 127, 251, 509, 1021, 2039, 4093};
  switch (rng.uniform_int(0, 2)) {
    case 0: return 1 << rng.uniform_int(0, 12);
    case 1: return kPrimes[rng.uniform_int(0, std::size(kPrimes) - 1)];
    default: return static_cast<int>(rng.uniform_int(1, 4096));
  }
}

/// Swaps an automatic register width outside 2..63 for an explicit one.
void settle_register(dsp::CicDecimator::Config& c, Rng& rng) {
  try {
    (void)dsp::CicDecimator::checked_register_bits(c);
  } catch (const ConfigError&) {
    c.register_bits = static_cast<int>(rng.uniform_int(2, 63));
  }
}

/// A valid CIC config: automatic or explicit register width on either side
/// of 32 (explicitly narrow ones wrap the output), sometimes pruned.
dsp::CicDecimator::Config random_cic(Rng& rng) {
  dsp::CicDecimator::Config c;
  c.stages = static_cast<int>(rng.uniform_int(1, 8));
  c.decimation = random_decimation(rng);
  c.diff_delay = static_cast<int>(rng.uniform_int(1, 2));
  c.input_bits = static_cast<int>(rng.uniform_int(1, 32));
  if (rng.uniform_int(0, 1) == 0) c.register_bits = static_cast<int>(rng.uniform_int(2, 63));
  if (rng.uniform_int(0, 5) == 0)
    for (int s = 0; s < c.stages; ++s)
      c.prune_shifts.push_back(static_cast<int>(rng.uniform_int(0, 3)));
  settle_register(c, rng);
  return c;
}

/// One of the three kernel tiers.
const test::Tier& random_tier(Rng& rng) {
  return test::kTiers[rng.uniform_int(0, 2)];
}

/// Block lengths that are mostly not multiples of R or of the fused tile.
std::size_t ragged(Rng& rng, int total_decimation) {
  return static_cast<std::size_t>(rng.uniform_int(0, 3 * total_decimation + 1500));
}

// ------------------------------------------------------- the dsp kernel

TEST(CicFormSweep, KernelMatchesCicDecimatorPush) {
  const std::uint64_t seed = sweep_seed();
  SCOPED_TRACE("random seed " + std::to_string(seed));
  Rng rng(0xc1cf0e5eedull ^ seed);
  int accepted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const dsp::CicDecimator::Config c = random_cic(rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": N=" + std::to_string(c.stages) +
                 " R=" + std::to_string(c.decimation) +
                 " M=" + std::to_string(c.diff_delay) +
                 " in=" + std::to_string(c.input_bits) +
                 " reg=" + std::to_string(c.register_bits) +
                 " pruned=" + std::to_string(!c.prune_shifts.empty()));
    const bool form = c.prune_shifts.empty() && is_power_of_two(c.decimation) &&
                      dsp::CicDecimator::checked_register_bits(c) <= 32;
    ASSERT_EQ(dsp::NonRecursiveCic::accepts(c), form);
    if (!form) {
      EXPECT_THROW(dsp::NonRecursiveCic{c}, ConfigError);
      continue;
    }
    ++accepted;
    dsp::CicDecimator oracle(c);
    dsp::NonRecursiveCic kernel(c);
    ASSERT_EQ(kernel.register_bits(), oracle.register_bits());
    std::vector<std::int64_t> want;
    std::vector<std::int64_t> got;
    for (int block = 0; block < 6; ++block) {
      if (block == 3 && rng.uniform_int(0, 1) == 0) {  // mid-stream reset
        oracle.reset();
        kernel.reset();
      }
      // One bit wider than declared: the form must agree on any int32 input.
      const auto in = dsp::random_samples(std::min(c.input_bits + 1, 32),
                                          ragged(rng, c.decimation), rng);
      for (std::int64_t x : in)
        if (auto y = oracle.push(x)) want.push_back(*y);
      // Each block may run in another tier: the state carries across tiers.
      const test::Tier& tier = random_tier(rng);
      SCOPED_TRACE(std::string("tier ") + tier.name);
      test::ScopedTier guard(tier);
      if (rng.uniform_int(0, 1) == 0) {
        kernel.process_block(in, got);
      } else {
        const std::vector<std::int32_t> in32(in.begin(), in.end());
        kernel.process_block(std::span<const std::int32_t>(in32), got);
      }
      ASSERT_EQ(got, want) << "block " << block;
    }
  }
  EXPECT_GT(accepted, 0);
}

// ----------------------------------------------- the fused executor

/// A 1..3-stage plan whose first stage is a random CIC, on a front end whose
/// mixer product lands on either side of 31 bits.
ChainPlan random_cic_plan(Rng& rng, int trial) {
  ChainPlan plan;
  plan.name = "cic-form-" + std::to_string(trial);
  plan.input_rate_hz = 40.0e6;
  FrontEndSpec& fe = plan.front_end;
  fe.nco_freq_hz = rng.uniform(0.5e6, 15.0e6);
  fe.input_bits = static_cast<int>(rng.uniform_int(2, 16));
  fe.nco_amplitude_bits = static_cast<int>(rng.uniform_int(2, 24));
  fe.mixer_out_bits = static_cast<int>(
      rng.uniform_int(1, fe.input_bits + fe.nco_amplitude_bits - 1));
  if (rng.uniform_int(0, 1) == 0) fe.mixer_rounding = fixed::Rounding::kNearest;
  if (rng.uniform_int(0, 3) == 0) fe.nco_mode = dsp::Nco::Mode::kTaylor;

  int total = 1;
  const int n_stages = static_cast<int>(rng.uniform_int(1, 3));
  for (int s = 0; s < n_stages; ++s) {
    if (s > 0 && rng.uniform_int(0, 2) == 0) {
      // Keep the FIR's inputs narrow enough that its dot cannot wrap.
      StageSpec& prev = plan.stages.back();
      if (prev.narrow_bits == 0 || prev.narrow_bits > 40) prev.narrow_bits = 40;
      const int dec = static_cast<int>(rng.uniform_int(1, 4));
      const int taps = static_cast<int>(rng.uniform_int(3, 31));
      auto ideal = dsp::design_lowpass(taps, 0.4 / dec, dsp::Window::kBlackman);
      const auto q = dsp::quantize_coefficients(ideal, 15);
      StageSpec fir = StageSpec::fir("fir", {q.begin(), q.end()}, ideal, dec);
      fir.post_shift = 15;
      fir.narrow_bits = 24;
      plan.stages.push_back(std::move(fir));
      total *= dec;
      continue;
    }
    dsp::CicDecimator::Config c = random_cic(rng);
    if (total * c.decimation > 8192) {
      c.decimation = std::max(1, 8192 / total);
      settle_register(c, rng);
    }
    if (s == 0 && trial % 4 < 2) {
      // Half the plans pin stage 0 to the non-recursive form, behind a mixer
      // whose product fits 31 bits (the int32 tile) or one whose product
      // does not (the int64 tile).
      c.decimation = 1 << rng.uniform_int(0, 10);
      c.prune_shifts.clear();
      c.register_bits = static_cast<int>(rng.uniform_int(2, 32));
      if (trial % 4 == 0) {
        fe.input_bits = std::min(fe.input_bits, 12);
        fe.nco_amplitude_bits = std::min(fe.nco_amplitude_bits, 16);
      } else {
        fe.input_bits = 16;
        fe.nco_amplitude_bits = static_cast<int>(rng.uniform_int(17, 24));
      }
      fe.mixer_out_bits = std::min(fe.mixer_out_bits, fe.input_bits + fe.nco_amplitude_bits - 1);
    }
    total *= c.decimation;
    StageSpec cic = StageSpec::cic("cic" + std::to_string(s), c.stages, c.decimation,
                                   c.input_bits);
    cic.diff_delay = c.diff_delay;
    cic.register_bits = c.register_bits;
    cic.prune_shifts = c.prune_shifts;
    const int width = dsp::CicDecimator::checked_register_bits(c);
    cic.post_shift = static_cast<int>(rng.uniform_int(0, width - 1));
    cic.narrow_bits = static_cast<int>(rng.uniform_int(0, 40));
    if (rng.uniform_int(0, 1) == 0) cic.rounding = fixed::Rounding::kNearest;
    plan.stages.push_back(std::move(cic));
  }
  plan.validate();
  return plan;
}

TEST(CicFormSweep, FusedMatchesStagedPipeline) {
  const std::uint64_t seed = sweep_seed();
  SCOPED_TRACE("random seed " + std::to_string(seed));
  Rng rng(0xf05edc1cull ^ seed);
  auto& cache = CompiledPlanCache::instance();
  int mixer_i32 = 0;
  int non_recursive_i64 = 0;
  int recursive = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const ChainPlan plan = random_cic_plan(rng, trial);
    const test::Tier& tier = random_tier(rng);
    test::ScopedTier guard(tier);
    const auto compiled = cache.get_or_compile(plan);
    const bool form0 = compiled->non_recursive(0);
    mixer_i32 += compiled->int32_mixer();
    non_recursive_i64 += form0 && !compiled->int32_mixer();
    recursive += !form0;
    SCOPED_TRACE(plan.name + " tier " + tier.name + " stage0 " +
                 (form0 ? "non-recursive" : "recursive") + " mixer " +
                 (compiled->int32_mixer() ? "int32" : "int64"));

    DdcPipeline staged(plan);
    FusedChainExec fused(compiled);
    std::vector<IqSample> want;
    std::vector<IqSample> got;
    const int total = plan.total_decimation();
    for (int block = 0; block < 6; ++block) {
      if (block == 2) {
        // Mid-stream splice: new NCO word and output conditioning, same
        // structure, so every CIC keeps its state in both executors.
        ChainPlan retune = plan;
        retune.front_end.nco_freq_hz = rng.uniform(0.5e6, 15.0e6);
        for (StageSpec& st : retune.stages) {
          st.post_shift = std::max(0, st.post_shift - 1);
          st.rounding = fixed::Rounding::kNearest;
        }
        staged.swap_plan(retune, SwapMode::kSplice);
        const auto next = cache.get_or_compile(retune);
        ASSERT_TRUE(fused.can_splice(*next));
        fused.splice(next);
      }
      if (block == 4) {
        staged.reset();
        fused.reset();
      }
      const auto in =
          dsp::random_samples(plan.front_end.input_bits, ragged(rng, total), rng);
      staged.process_block(in, want);
      fused.process_block(in, got);
      ASSERT_EQ(got.size(), want.size()) << "block " << block;
      for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "block " << block << " sample " << i;
    }
  }
  EXPECT_GT(mixer_i32, 0);
  EXPECT_GT(non_recursive_i64, 0);
  EXPECT_GT(recursive, 0);
}

// ----------------------------------------------------- the form choice

TEST(CicForm, CompiledPlanPicksEachStagesForm) {
  // Figure 1 on the wide16 datapath: CIC2 (N=2, R=16, 24-bit register) is
  // non-recursive; CIC5 decimates by 21 and stays recursive.  The 27-bit
  // mixer product fits 31 bits, so the mixer writes int32.
  const ChainPlan fig1 =
      ChainPlan::figure1(DdcConfig::reference(10.0e6), DatapathSpec::wide16());
  const CompiledPlan wide(fig1);
  ASSERT_EQ(wide.plan().stages.size(), 3u);
  EXPECT_TRUE(wide.non_recursive(0));
  EXPECT_FALSE(wide.non_recursive(1));
  EXPECT_FALSE(wide.non_recursive(2));
  EXPECT_TRUE(wide.int32_mixer());

  // A pruned stage keeps the recursion, and the mixer its int64 tile.
  ChainPlan pruned = fig1;
  pruned.stages[0].prune_shifts = {0, 1};
  const CompiledPlan p(pruned);
  EXPECT_FALSE(p.non_recursive(0));
  EXPECT_FALSE(p.int32_mixer());

  // So does a register wider than 32 bits.
  ChainPlan wide_reg = fig1;
  wide_reg.stages[0].register_bits = 33;
  const CompiledPlan w(wide_reg);
  EXPECT_FALSE(w.non_recursive(0));
  EXPECT_FALSE(w.int32_mixer());

  // A mixer product wider than 31 bits keeps the int64 tile.
  ChainPlan wide_mix = fig1;
  wide_mix.front_end.nco_amplitude_bits = 24;
  const CompiledPlan m(wide_mix);
  EXPECT_TRUE(m.non_recursive(0));
  EXPECT_FALSE(m.int32_mixer());
}

}  // namespace
}  // namespace twiddc::core
