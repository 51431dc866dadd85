// ChannelBank: N batched channels must equal N independent single-channel
// DdcPipeline runs, disabled channels must freeze, and a rejected block must
// advance nothing.
#include "src/core/channel_bank.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/error.hpp"
#include "src/common/simd.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/dsp/signal.hpp"

namespace twiddc::core {
namespace {

std::vector<ChainPlan> detuned_plans(std::size_t n) {
  const auto cfg = DdcConfig::reference(10.0e6);
  const auto spec = DatapathSpec::wide16();
  std::vector<ChainPlan> plans;
  for (std::size_t c = 0; c < n; ++c) {
    auto ch = cfg;
    ch.nco_freq_hz = cfg.nco_freq_hz + 40.0e3 * static_cast<double>(c);
    plans.push_back(ChainPlan::figure1(ch, spec));
  }
  return plans;
}

std::vector<std::int64_t> stimulus(std::size_t n) {
  const auto cfg = DdcConfig::reference(10.0e6);
  return dsp::quantize_signal(dsp::make_tone(10.0025e6, cfg.input_rate_hz, n, 0.7), 12);
}

void expect_equal(const std::vector<IqSample>& a, const std::vector<IqSample>& b,
                  std::size_t channel) {
  ASSERT_EQ(a.size(), b.size()) << "channel " << channel;
  for (std::size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].i, b[k].i) << "channel " << channel << " sample " << k;
    ASSERT_EQ(a[k].q, b[k].q) << "channel " << channel << " sample " << k;
  }
}

TEST(ChannelBank, RejectsEmptyPlanList) {
  EXPECT_THROW(ChannelBank({}), twiddc::ConfigError);
}

TEST(ChannelBank, BatchEqualsIndependentRuns) {
  const auto plans = detuned_plans(4);
  const auto input = stimulus(2688 * 5);

  ChannelBank bank(plans);
  std::vector<std::vector<IqSample>> got;
  bank.process_block(input, got);
  ASSERT_EQ(got.size(), plans.size());

  for (std::size_t c = 0; c < plans.size(); ++c) {
    DdcPipeline solo(plans[c]);
    std::vector<IqSample> want;
    solo.process_block(input, want);
    expect_equal(got[c], want, c);
  }
}

TEST(ChannelBank, StreamingBlocksAccumulatePlanarOutputs) {
  const auto plans = detuned_plans(2);
  const auto input = stimulus(2688 * 3);

  ChannelBank whole(plans);
  std::vector<std::vector<IqSample>> want;
  whole.process_block(input, want);

  ChannelBank chunked(plans);
  std::vector<std::vector<IqSample>> got;
  const std::size_t half = input.size() / 2;
  chunked.process_block(std::span<const std::int64_t>(input.data(), half), got);
  chunked.process_block(
      std::span<const std::int64_t>(input.data() + half, input.size() - half), got);
  for (std::size_t c = 0; c < want.size(); ++c) expect_equal(got[c], want[c], c);
}

TEST(ChannelBank, DisabledChannelFreezes) {
  const auto plans = detuned_plans(3);
  const auto input = stimulus(2688 * 2);

  ChannelBank bank(plans);
  bank.set_enabled(1, false);
  std::vector<std::vector<IqSample>> got;
  bank.process_block(input, got);
  EXPECT_TRUE(got[1].empty());
  EXPECT_FALSE(got[0].empty());
  EXPECT_FALSE(got[2].empty());

  // Re-enabling resumes from the frozen state: the next block equals a fresh
  // run over it, not a continuation past the missed one.
  bank.set_enabled(1, true);
  std::vector<std::vector<IqSample>> next;
  bank.process_block(input, next);
  DdcPipeline solo(plans[1]);
  std::vector<IqSample> want;
  solo.process_block(input, want);
  expect_equal(next[1], want, 1);
}

TEST(ChannelBank, ResetRestoresFreshState) {
  const auto plans = detuned_plans(2);
  const auto input = stimulus(2688 * 2);

  ChannelBank bank(plans);
  std::vector<std::vector<IqSample>> first;
  bank.process_block(input, first);
  bank.reset();
  std::vector<std::vector<IqSample>> second;
  bank.process_block(input, second);
  for (std::size_t c = 0; c < first.size(); ++c)
    expect_equal(second[c], first[c], c);
}

// Channels whose plans decimate at very different rates: the work per block
// is uneven across channels, but batching must stay bit-exact with solo
// runs.
TEST(ChannelBank, SkewedDecimationsStayBitExact) {
  const auto spec = DatapathSpec::wide16();
  auto light = DdcConfig::reference(10.0e6);  // 16 * 21 * 8 = 2688
  auto heavy = light;
  heavy.cic2_decimation = 64;
  heavy.cic5_decimation = 42;
  heavy.fir_decimation = 16;  // 43008: 16x the light channel's decimation
  auto mid = light;
  mid.cic2_decimation = 8;
  mid.fir_decimation = 4;  // 672: a fast, output-heavy channel
  const std::vector<ChainPlan> plans = {
      ChainPlan::figure1(light, spec),
      ChainPlan::figure1(heavy, spec),
      ChainPlan::figure1(mid, spec),
  };
  const auto input = stimulus(43008 * 2);

  ChannelBank bank(plans);
  std::vector<std::vector<IqSample>> got;
  bank.process_block(input, got);
  EXPECT_FALSE(got[0].empty());
  EXPECT_FALSE(got[1].empty());
  EXPECT_FALSE(got[2].empty());
  EXPECT_GT(got[2].size(), got[1].size());  // skew is real

  for (std::size_t c = 0; c < plans.size(); ++c) {
    DdcPipeline solo(plans[c]);
    std::vector<IqSample> want;
    solo.process_block(input, want);
    expect_equal(got[c], want, c);
  }
}

TEST(ChannelBank, SingleChannelPathMatchesSolo) {
  const auto plans = detuned_plans(1);
  const auto input = stimulus(2688 * 3);

  ChannelBank bank(plans);
  std::vector<std::vector<IqSample>> got;
  bank.process_block(input, got);
  ASSERT_EQ(got.size(), 1u);

  DdcPipeline solo(plans[0]);
  std::vector<IqSample> want;
  solo.process_block(input, want);
  expect_equal(got[0], want, 0);
}

TEST(ChannelBank, AllChannelsDisabledIsANoOp) {
  const auto plans = detuned_plans(3);
  ChannelBank bank(plans);
  for (std::size_t c = 0; c < plans.size(); ++c) bank.set_enabled(c, false);
  std::vector<std::vector<IqSample>> got;
  bank.process_block(stimulus(2688), got);
  ASSERT_EQ(got.size(), 3u);
  for (const auto& ch : got) EXPECT_TRUE(ch.empty());

  // Nothing advanced: a re-enabled channel starts from its fresh state.
  bank.set_enabled(0, true);
  const auto input = stimulus(2688 * 2);
  std::vector<std::vector<IqSample>> next;
  bank.process_block(input, next);
  DdcPipeline solo(plans[0]);
  std::vector<IqSample> want;
  solo.process_block(input, want);
  expect_equal(next[0], want, 0);
  EXPECT_TRUE(next[1].empty());
  EXPECT_TRUE(next[2].empty());
}

TEST(ChannelBank, EmptyInputProducesNoOutput) {
  ChannelBank bank(detuned_plans(2));
  std::vector<std::vector<IqSample>> got;
  bank.process_block(std::span<const std::int64_t>(), got);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].empty());
  EXPECT_TRUE(got[1].empty());
}

// ------------------------------------------------------------ wider banks
//
// Larger populations of detuned Figure 1 channels, ragged block seams, the
// simd kill switch flipped mid-stream and full-scale drive, each against
// solo DdcPipeline runs over the same input.

void expect_bank_matches_solo(const std::vector<ChainPlan>& plans,
                              const std::vector<std::int64_t>& input) {
  ChannelBank bank(plans);
  std::vector<std::vector<IqSample>> got;
  bank.process_block(input, got);
  ASSERT_EQ(got.size(), plans.size());
  for (std::size_t c = 0; c < plans.size(); ++c) {
    DdcPipeline solo(plans[c]);
    std::vector<IqSample> want;
    solo.process_block(input, want);
    expect_equal(got[c], want, c);
  }
}

TEST(ChannelBank, NineChannelsMatchSolo) {
  // The uneven block size leaves each executor a partial final tile.
  expect_bank_matches_solo(detuned_plans(9), stimulus(2688 * 4 + 1337));
}

TEST(ChannelBank, StreamingSeamsCarryState) {
  // Feed the same data as one block and as three ragged blocks: every seam
  // falls mid-way through a CIC decimation, so each channel's filter state
  // and decimation phase must carry across it.
  const auto plans = detuned_plans(8);
  const auto input = stimulus(2688 * 4 + 100);

  ChannelBank whole(plans);
  std::vector<std::vector<IqSample>> want;
  whole.process_block(input, want);

  ChannelBank chunked(plans);
  std::vector<std::vector<IqSample>> got;
  const std::size_t cut1 = 1234;  // not a multiple of any decimation
  const std::size_t cut2 = 2688 * 2 + 7;
  chunked.process_block({input.data(), cut1}, got);
  chunked.process_block({input.data() + cut1, cut2 - cut1}, got);
  chunked.process_block({input.data() + cut2, input.size() - cut2}, got);
  for (std::size_t c = 0; c < want.size(); ++c) expect_equal(got[c], want[c], c);
}

TEST(ChannelBank, OutOfRangeInputPastTheFirstTileAdvancesNothing) {
  // Five channels, the first with a 16-bit front end and the rest 12-bit.
  // The bad sample fits the first channel but no other, and sits far past
  // each executor's first tile: a check made channel by channel would throw
  // only after the first channel had run the whole block.
  auto plans = detuned_plans(5);
  plans[0].front_end.input_bits = 16;
  const auto clean = stimulus(2688 * 8);  // 21504 samples
  auto input = clean;
  input[20000] = std::int64_t{1} << 13;  // fits 16 bits, not 12
  ChannelBank bank(plans);
  std::vector<std::vector<IqSample>> got;
  EXPECT_THROW(bank.process_block(input, got), twiddc::SimulationError);
  for (const auto& ch : got) EXPECT_TRUE(ch.empty());

  // Nothing advanced, so the bank still matches fresh solo pipelines.
  got.clear();
  bank.process_block(clean, got);
  for (std::size_t c = 0; c < plans.size(); ++c) {
    DdcPipeline solo(plans[c]);
    std::vector<IqSample> want;
    solo.process_block(clean, want);
    expect_equal(got[c], want, c);
  }
}

TEST(ChannelBank, ElevenChannelsMatchSolo) {
  expect_bank_matches_solo(detuned_plans(11), stimulus(2688 * 3 + 1337));
}

TEST(ChannelBank, ThirteenChannelsMatchSolo) {
  expect_bank_matches_solo(detuned_plans(13), stimulus(2688 * 3 + 19));
}

TEST(ChannelBank, KillSwitchMidStreamStaysBitExact) {
  // Flip the kill switch off and back on across block seams: each channel's
  // state (CIC kernels, FIR delay lines, NCO phase) must carry across the
  // change between intrinsic and scalar kernels.
  const auto plans = detuned_plans(9);
  const auto input = stimulus(2688 * 3 + 100);

  ChannelBank toggled(plans);
  std::vector<std::vector<IqSample>> got;
  const std::size_t cut1 = 1234;
  const std::size_t cut2 = 2688 + 613;
  toggled.process_block({input.data(), cut1}, got);
  {
    simd::ScopedEnable guard(false);
    toggled.process_block({input.data() + cut1, cut2 - cut1}, got);
  }
  toggled.process_block({input.data() + cut2, input.size() - cut2}, got);

  for (std::size_t c = 0; c < plans.size(); ++c) {
    DdcPipeline solo(plans[c]);
    std::vector<IqSample> want;
    solo.process_block(input, want);
    expect_equal(got[c], want, c);
  }
}

TEST(ChannelBank, FullScaleInputStaysBitExact) {
  // Near-full-scale 12-bit drive produces the widest intermediates in the
  // FIR tail: whether a dot takes the narrow-multiply or the exact wide
  // path, outputs must equal the per-channel reference.
  const auto cfg = DdcConfig::reference(10.0e6);
  const auto input = dsp::quantize_signal(
      dsp::make_tone(10.0025e6, cfg.input_rate_hz, 2688 * 2 + 31, 0.999), 12);
  expect_bank_matches_solo(detuned_plans(8), input);
}

}  // namespace
}  // namespace twiddc::core
