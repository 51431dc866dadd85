// The composable stage-pipeline layer: StageSpec/ChainPlan validation, the
// block==push bit-exactness invariant for every stage kind and for full
// chains, observation taps, and custom (non-Figure-1) topologies.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <memory>
#include <span>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/analysis.hpp"
#include "src/core/fixed_ddc.hpp"
#include "src/core/float_ddc.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/plan_compiler.hpp"
#include "src/dsp/signal.hpp"
#include "src/dsp/spectrum.hpp"
#include "src/fixed/qformat.hpp"

namespace twiddc::core {
namespace {

// Odd-sized chunks so block boundaries never align with decimation phases.
constexpr std::size_t kChunks[] = {1, 7, 97, 1024, 2689};

std::vector<std::int64_t> random_fixed_input(std::size_t n, int bits, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> v(n);
  const std::int64_t lim = fixed::max_for_bits(bits);
  for (auto& x : v) x = rng.uniform_int(-lim - 1, lim);
  return v;
}

StageSpec sample_spec(StageSpec::Kind kind) {
  switch (kind) {
    case StageSpec::Kind::kPassthrough:
      return StageSpec::passthrough();
    case StageSpec::Kind::kScale:
      return StageSpec::scale("scale", 3, 12, fixed::Rounding::kNearest);
    case StageSpec::Kind::kCic: {
      StageSpec s = StageSpec::cic("cic", 3, 13, 14);
      s.post_shift = fixed::cic_bit_growth(3, 13);
      s.narrow_bits = 14;
      return s;
    }
    case StageSpec::Kind::kFirDecimator: {
      StageSpec s = StageSpec::fir("fir", {5, -3, 9, 1, -7, 2, 11}, {}, 3);
      s.post_shift = 4;
      s.narrow_bits = 14;
      return s;
    }
    case StageSpec::Kind::kPolyphaseFir: {
      StageSpec s = StageSpec::polyphase_fir("pfir", {5, -3, 9, 1, -7, 2, 11}, {}, 3);
      s.post_shift = 4;
      s.narrow_bits = 14;
      return s;
    }
  }
  return StageSpec::passthrough();
}

class StageKindTest : public ::testing::TestWithParam<StageSpec::Kind> {};

TEST_P(StageKindTest, FixedBlockMatchesPush) {
  const StageSpec spec = sample_spec(GetParam());
  const auto input = random_fixed_input(10007, 14, 0x11);
  for (std::size_t chunk : kChunks) {
    auto by_push = make_fixed_stage(spec);
    auto by_block = make_fixed_stage(spec);
    std::vector<std::int64_t> pushed, blocked;
    for (std::int64_t x : input) {
      if (auto y = by_push->push(x)) pushed.push_back(*y);
    }
    for (std::size_t at = 0; at < input.size(); at += chunk) {
      const std::size_t len = std::min(chunk, input.size() - at);
      by_block->process_block(std::span<const std::int64_t>(&input[at], len), blocked);
    }
    ASSERT_EQ(pushed, blocked) << "kind=" << static_cast<int>(GetParam())
                               << " chunk=" << chunk;
  }
}

TEST_P(StageKindTest, FloatBlockMatchesPush) {
  StageSpec spec = sample_spec(GetParam());
  spec.taps_float = {0.5, -0.25, 0.125, 0.0625, -0.5, 0.75, 0.1};
  spec.post_scale = 0.125;
  Rng rng(0x22);
  std::vector<double> input(10007);
  for (auto& x : input) x = rng.uniform(-1.0, 1.0);
  for (std::size_t chunk : kChunks) {
    auto by_push = make_float_stage(spec);
    auto by_block = make_float_stage(spec);
    std::vector<double> pushed, blocked;
    for (double x : input) {
      if (auto y = by_push->push(x)) pushed.push_back(*y);
    }
    for (std::size_t at = 0; at < input.size(); at += chunk) {
      const std::size_t len = std::min(chunk, input.size() - at);
      by_block->process_block(std::span<const double>(&input[at], len), blocked);
    }
    ASSERT_EQ(pushed.size(), blocked.size());
    for (std::size_t i = 0; i < pushed.size(); ++i)
      ASSERT_EQ(pushed[i], blocked[i]) << "chunk=" << chunk << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, StageKindTest,
                         ::testing::Values(StageSpec::Kind::kPassthrough,
                                           StageSpec::Kind::kScale,
                                           StageSpec::Kind::kCic,
                                           StageSpec::Kind::kFirDecimator,
                                           StageSpec::Kind::kPolyphaseFir));

TEST(StageChainTest, BlockMatchesPushOnFigure1Rail) {
  const auto plan = ChainPlan::figure1(DdcConfig::reference(), DatapathSpec::wide16());
  const auto input = random_fixed_input(2688 * 11, 16, 0x33);
  for (std::size_t chunk : kChunks) {
    StageChain<std::int64_t> by_push = make_fixed_rail(plan);
    StageChain<std::int64_t> by_block = make_fixed_rail(plan);
    std::vector<std::int64_t> pushed, blocked;
    for (std::int64_t x : input) {
      if (auto y = by_push.push(x)) pushed.push_back(*y);
    }
    for (std::size_t at = 0; at < input.size(); at += chunk) {
      const std::size_t len = std::min(chunk, input.size() - at);
      by_block.process_block(std::span<const std::int64_t>(&input[at], len), blocked);
    }
    ASSERT_EQ(pushed, blocked) << "chunk=" << chunk;
  }
}

TEST(StageChainTest, TapsSeeEveryStageOutputInBothModes) {
  const auto plan = ChainPlan::figure1(DdcConfig::reference(), DatapathSpec::wide16());
  const auto input = random_fixed_input(2688 * 4, 16, 0x44);

  StageChain<std::int64_t> by_push = make_fixed_rail(plan);
  StageChain<std::int64_t> by_block = make_fixed_rail(plan);
  std::vector<std::int64_t> push_taps[3], block_taps[3], sink;
  for (int i = 0; i < 3; ++i) {
    by_push.set_tap(static_cast<std::size_t>(i), &push_taps[i]);
    by_block.set_tap(static_cast<std::size_t>(i), &block_taps[i]);
  }
  for (std::int64_t x : input) by_push.push(x);
  by_block.process_block(input, sink);

  EXPECT_EQ(push_taps[0].size(), input.size() / 16);
  EXPECT_EQ(push_taps[1].size(), input.size() / (16 * 21));
  EXPECT_EQ(push_taps[2].size(), input.size() / 2688);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(push_taps[i], block_taps[i]) << "stage " << i;
  EXPECT_EQ(block_taps[2], sink);
}

TEST(DdcPipelineTest, BlockMatchesPushAcrossChunkSizes) {
  const auto plan = ChainPlan::figure1(DdcConfig::reference(), DatapathSpec::fpga());
  const auto analog = dsp::make_tone(10.0025e6, 64.512e6, 2688 * 12, 0.7);
  const auto input = dsp::quantize_signal(analog, 12);
  DdcPipeline by_push(plan);
  std::vector<IqSample> pushed;
  for (std::int64_t x : input) {
    if (auto y = by_push.push(x)) pushed.push_back(*y);
  }
  for (std::size_t chunk : kChunks) {
    DdcPipeline by_block(plan);
    std::vector<IqSample> blocked;
    for (std::size_t at = 0; at < input.size(); at += chunk) {
      const std::size_t len = std::min(chunk, input.size() - at);
      by_block.process_block(std::span<const std::int64_t>(&input[at], len), blocked);
    }
    ASSERT_EQ(pushed, blocked) << "chunk=" << chunk;
    EXPECT_EQ(by_block.samples_in(), input.size());
    EXPECT_EQ(by_block.samples_out(), blocked.size());
  }
}

TEST(DdcPipelineTest, RejectsOutOfRangeInputInBothModes) {
  const auto plan = ChainPlan::figure1(DdcConfig::reference(), DatapathSpec::wide16());
  DdcPipeline ddc(plan);
  const std::int64_t bad = fixed::max_for_bits(plan.front_end.input_bits) + 1;
  EXPECT_THROW(ddc.push(bad), SimulationError);
  std::vector<IqSample> out;
  const std::vector<std::int64_t> block{0, 1, bad};
  EXPECT_THROW(ddc.process_block(block, out), SimulationError);
  // A rejected block must be all-or-nothing: no NCO/rail state may have
  // advanced, so the pipeline still matches a fresh one sample-for-sample.
  EXPECT_EQ(ddc.samples_in(), 0u);
  const auto good = random_fixed_input(2688 * 2, plan.front_end.input_bits, 0x55);
  DdcPipeline fresh(plan);
  std::vector<IqSample> after_throw, expected;
  ddc.process_block(good, after_throw);
  fresh.process_block(good, expected);
  EXPECT_EQ(after_throw, expected);
}

TEST(ChainPlanTest, Figure1MatchesConfigRates) {
  const auto cfg = DdcConfig::reference();
  const auto plan = ChainPlan::figure1(cfg, DatapathSpec::wide16());
  EXPECT_EQ(plan.total_decimation(), cfg.total_decimation());
  EXPECT_DOUBLE_EQ(plan.output_rate_hz(), cfg.output_rate_hz());
  ASSERT_EQ(plan.stages.size(), 3u);
  EXPECT_EQ(plan.stages[0].decimation, cfg.cic2_decimation);
  EXPECT_EQ(plan.stages[1].decimation, cfg.cic5_decimation);
  EXPECT_EQ(plan.stages[2].decimation, cfg.fir_decimation);
}

TEST(ChainPlanTest, ValidationNamesTheOffendingStage) {
  StageSpec bad = StageSpec::cic("cic5", 5, 21, 16);
  bad.prune_shifts = {1, 2};  // 2 entries for a 5-stage CIC
  try {
    bad.validate();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cic5"), std::string::npos) << what;
    EXPECT_NE(what.find("prune_shifts"), std::string::npos) << what;
  }

  StageSpec decimating_scale = StageSpec::scale("s", 1, 12);
  decimating_scale.decimation = 2;
  EXPECT_THROW(decimating_scale.validate(), ConfigError);

  ChainPlan plan;
  plan.name = "empty";
  plan.input_rate_hz = 1e6;
  EXPECT_THROW(plan.validate(), ConfigError);  // no stages
}

TEST(ChainPlanTest, RejectsFrontEndWidthsTheDatapathCannotHold) {
  // Every entry point that takes a plan refuses a front end the int64
  // datapath cannot hold, instead of reaching an undefined shift (a 70-bit
  // range check, a 0-bit narrow) or an int64 mixer product that overflows.
  const ChainPlan good =
      ChainPlan::figure1(DdcConfig::reference(10.0e6), DatapathSpec::wide16());
  struct Case {
    const char* what;
    void (*edit)(FrontEndSpec&);
  };
  const Case bad[] = {
      {"input_bits 0", [](FrontEndSpec& fe) { fe.input_bits = 0; }},
      {"input_bits 64", [](FrontEndSpec& fe) { fe.input_bits = 64; }},
      {"input_bits 70", [](FrontEndSpec& fe) { fe.input_bits = 70; }},
      {"60-bit input, 16-bit NCO", [](FrontEndSpec& fe) { fe.input_bits = 60; }},
      {"mixer_out_bits 0", [](FrontEndSpec& fe) { fe.mixer_out_bits = 0; }},
      {"LUT NCO, 1 bit", [](FrontEndSpec& fe) { fe.nco_amplitude_bits = 1; }},
      {"LUT NCO, 25 bits", [](FrontEndSpec& fe) { fe.nco_amplitude_bits = 25; }},
      {"Taylor NCO, 1 bit",
       [](FrontEndSpec& fe) {
         fe.nco_mode = dsp::Nco::Mode::kTaylor;
         fe.nco_amplitude_bits = 1;
       }},
      {"Taylor NCO, 40 bits",
       [](FrontEndSpec& fe) {
         fe.nco_mode = dsp::Nco::Mode::kTaylor;
         fe.nco_amplitude_bits = 40;
       }},
  };
  for (const Case& c : bad) {
    SCOPED_TRACE(c.what);
    ChainPlan plan = good;
    c.edit(plan.front_end);
    EXPECT_THROW(plan.validate(), ConfigError);
    EXPECT_THROW(CompiledPlanCache::instance().get_or_compile(plan), ConfigError);
    EXPECT_THROW(DdcPipeline{plan}, ConfigError);
  }

  // A 48-bit input times a 16-bit NCO is a 63-bit product: the widest that fits.
  ChainPlan widest = good;
  widest.front_end.input_bits = 48;
  EXPECT_NO_THROW(widest.validate());
  EXPECT_NO_THROW(CompiledPlanCache::instance().get_or_compile(widest));
  EXPECT_NO_THROW(DdcPipeline{widest});
}

TEST(ChainPlanTest, CustomTopologyRuns) {
  // A deliberately non-Figure-1 chain: CIC3 -> passthrough -> CIC2 -> FIR,
  // proving arbitrary topologies are data, not code.
  ChainPlan plan;
  plan.name = "custom";
  plan.input_rate_hz = 10.0e6;
  plan.front_end.nco_freq_hz = 2.5e6;
  plan.front_end.input_bits = 12;
  plan.front_end.nco_amplitude_bits = 16;
  plan.front_end.mixer_out_bits = 16;

  StageSpec cic_a = StageSpec::cic("cic_a", 3, 10, 16);
  cic_a.post_shift = fixed::cic_bit_growth(3, 10);
  cic_a.narrow_bits = 16;
  StageSpec cic_b = StageSpec::cic("cic_b", 2, 5, 16);
  cic_b.post_shift = fixed::cic_bit_growth(2, 5);
  cic_b.narrow_bits = 16;
  StageSpec fir = StageSpec::polyphase_fir("fir", {1, 2, 4, 8, 4, 2, 1}, {}, 2);
  fir.post_shift = 5;
  fir.narrow_bits = 16;
  plan.stages = {std::move(cic_a), StageSpec::passthrough(), std::move(cic_b),
                 std::move(fir)};
  plan.validate();
  EXPECT_EQ(plan.total_decimation(), 100);

  DdcPipeline ddc(plan);
  const auto analog = dsp::make_tone(2.5025e6, plan.input_rate_hz, 100 * 64, 0.7);
  const auto out = ddc.process(dsp::quantize_signal(analog, 12));
  EXPECT_EQ(out.size(), 64u);
  // The retained band must contain the 2.5 kHz offset tone.
  auto iq = to_complex(out, 1.0 / 32768.0);
  iq.erase(iq.begin(), iq.begin() + 8);
  const auto s = dsp::periodogram_complex(iq, plan.output_rate_hz());
  EXPECT_NEAR(s.freq(s.peak_bin()), 2.5e3, 2.0 * s.bin_hz);
}

TEST(NcoParityTest, FixedAndFloatRetuneIdentically) {
  // set_nco_frequency exists on both chains (the pre-pipeline API gap) and
  // both quantise to the same tuning word, so after a retune the fixed chain
  // still tracks the float golden chain.
  const auto cfg = DdcConfig::reference(10.0e6);
  FixedDdc fixed_chain(cfg, DatapathSpec::wide16());
  FloatDdc golden(cfg);
  fixed_chain.set_nco_frequency(8.0e6);
  golden.set_nco_frequency(8.0e6);
  EXPECT_DOUBLE_EQ(fixed_chain.config().nco_freq_hz, 8.0e6);
  EXPECT_DOUBLE_EQ(golden.config().nco_freq_hz, 8.0e6);

  const auto analog = dsp::make_tone(8.002e6, cfg.input_rate_hz, 2688 * 100, 0.7);
  const auto digital = dsp::quantize_signal(analog, 12);
  const auto g = golden.process(dsp::dequantize_signal(digital, 12));
  const auto f = to_complex(fixed_chain.process(digital), fixed_chain.output_scale());
  ASSERT_EQ(g.size(), f.size());
  std::vector<std::complex<double>> gs(g.begin() + 8, g.end());
  std::vector<std::complex<double>> fs(f.begin() + 8, f.end());
  EXPECT_GT(compare_streams(gs, fs).snr_db, 50.0);

  EXPECT_THROW(golden.set_nco_frequency(-1.0), ConfigError);
  EXPECT_THROW(golden.set_nco_frequency(cfg.input_rate_hz), ConfigError);
}

TEST(FloatDdcTest, AcceptsTapCountsBeyondFixedAccumulatorLimit) {
  // The float rail has no fixed-point accumulator, so it must not inherit a
  // DatapathSpec's fir_acc_bits constraint (regression: the first pipeline
  // rebuild validated against wide16 and rejected valid large designs).
  DdcConfig cfg = DdcConfig::reference();
  cfg.fir_taps = 1025;
  FloatDdc ddc(cfg);
  EXPECT_EQ(ddc.fir_taps().size(), 1025u);
}

TEST(FixedDdcTest, TracingSurvivesMove) {
  const auto cfg = DdcConfig::reference();
  const auto input = dsp::quantize_signal(
      dsp::make_tone(10.0025e6, cfg.input_rate_hz, 2688 * 2, 0.7), 12);

  FixedDdc reference(cfg, DatapathSpec::wide16());
  reference.set_tracing(true);
  reference.process(input);

  FixedDdc original(cfg, DatapathSpec::wide16());
  original.set_tracing(true);
  FixedDdc moved = std::move(original);
  moved.process(input);
  EXPECT_EQ(moved.trace().mixer_i, reference.trace().mixer_i);
  EXPECT_EQ(moved.trace().fir_i, reference.trace().fir_i);
}

TEST(FloatDdcTest, BlockMatchesPushBitExactly) {
  const auto cfg = DdcConfig::reference();
  const auto analog = dsp::make_tone(10.0025e6, cfg.input_rate_hz, 2688 * 10, 0.7);
  FloatDdc by_push(cfg);
  std::vector<std::complex<double>> pushed;
  for (double x : analog) {
    if (auto y = by_push.push(x)) pushed.push_back(*y);
  }
  for (std::size_t chunk : kChunks) {
    FloatDdc by_block(cfg);
    std::vector<std::complex<double>> blocked;
    for (std::size_t at = 0; at < analog.size(); at += chunk) {
      const std::size_t len = std::min(chunk, analog.size() - at);
      by_block.process_block(std::span<const double>(&analog[at], len), blocked);
    }
    ASSERT_EQ(pushed.size(), blocked.size());
    for (std::size_t i = 0; i < pushed.size(); ++i)
      ASSERT_EQ(pushed[i], blocked[i]) << "chunk=" << chunk << " i=" << i;
  }
}

}  // namespace
}  // namespace twiddc::core
