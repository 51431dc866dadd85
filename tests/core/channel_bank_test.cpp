// ChannelBank: N batched channels must equal N independent single-channel
// runs, disabled channels must freeze, and a rejected block must advance
// nothing.
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
  EXPECT_EQ(bank.channel(1).samples_in(), 0u);

  // Re-enabling resumes from the frozen state (a fresh run over the next
  // block, not a replay of the missed one).
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

// Channels whose plans decimate at very different rates: the per-tile work
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
  EXPECT_EQ(bank.channel(0).samples_in(), 0u);
}

TEST(ChannelBank, EmptyInputProducesNoOutput) {
  ChannelBank bank(detuned_plans(2));
  std::vector<std::vector<IqSample>> got;
  bank.process_block(std::span<const std::int64_t>(), got);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].empty());
  EXPECT_TRUE(got[1].empty());
}

// --------------------------------------------------- cross-channel packing
//
// Eight identical-geometry figure-1 channels form two packed quads; the
// earlier BatchEqualsIndependentRuns test already runs through the packed
// path (4 detuned channels), so these focus on the packing-specific seams:
// remainder lanes, the kill switch, partial blocks, fallback triggers, and
// the sample counters.

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
    EXPECT_EQ(bank.channel(c).samples_in(), solo.samples_in()) << "channel " << c;
    EXPECT_EQ(bank.channel(c).samples_out(), solo.samples_out()) << "channel " << c;
  }
}

TEST(ChannelBank, PackedQuadsWithRemainderLanesMatchSolo) {
  // 9 channels: two full quads + one leftover single lane.  Uneven block
  // size exercises the packed tile loop's partial final tile.
  expect_bank_matches_solo(detuned_plans(9), stimulus(2688 * 4 + 1337));
}

TEST(ChannelBank, PackedKillSwitchFallsBackBitExact) {
  // With simd disabled process_block_packed4 declines and every lane runs
  // the scalar per-channel path -- outputs and counters must not change.
  simd::ScopedEnable guard(false);
  expect_bank_matches_solo(detuned_plans(8), stimulus(2688 * 3 + 17));
}

TEST(ChannelBank, MixedGeometriesGroupSeparately) {
  // Two CIC geometries (4 + 3 channels) plus skew: group keys must keep
  // them apart (one quad, and 3 singles or a partial group), still exact.
  const auto spec = DatapathSpec::wide16();
  std::vector<ChainPlan> plans = detuned_plans(4);
  auto alt = DdcConfig::reference(10.0e6);
  alt.cic2_decimation = 8;
  alt.fir_decimation = 4;
  for (int c = 0; c < 3; ++c) {
    auto ch = alt;
    ch.nco_freq_hz += 55.0e3 * c;
    plans.push_back(ChainPlan::figure1(ch, spec));
  }
  expect_bank_matches_solo(plans, stimulus(2688 * 4));
}

TEST(ChannelBank, ObservationTapsForceTheUnpackedPath) {
  // A mid-chain tap needs the full per-channel stage walk; the tapped
  // channel must fall out of the quad but still produce identical output.
  const auto plans = detuned_plans(5);
  const auto input = stimulus(2688 * 3);

  ChannelBank bank(plans);
  std::vector<std::int64_t> tapped;
  bank.channel(2).rail(0).set_tap(0, &tapped);
  std::vector<std::vector<IqSample>> got;
  bank.process_block(input, got);
  EXPECT_FALSE(tapped.empty());  // the tap really fired

  for (std::size_t c = 0; c < plans.size(); ++c) {
    DdcPipeline solo(plans[c]);
    std::vector<IqSample> want;
    solo.process_block(input, want);
    expect_equal(got[c], want, c);
  }
}

TEST(ChannelBank, PackedStreamingSeamsCarryState) {
  // Feed the same data as one block and as three ragged blocks through
  // packed banks: CIC phase (samples_in % decimation) differs mid-stream,
  // so regrouping must key on it and stay exact.
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
  // Five channels: a packed quad plus a single.  The bad sample sits in the
  // third 8192-sample tile, so a check made tile by tile would throw only
  // after every channel had run the first two tiles.
  const auto plans = detuned_plans(5);
  const auto clean = stimulus(2688 * 8);  // 21504 samples: three tiles
  auto input = clean;
  input[20000] = std::int64_t{1} << 30;  // beyond the 12-bit front end
  ChannelBank bank(plans);
  std::vector<std::vector<IqSample>> got;
  EXPECT_THROW(bank.process_block(input, got), twiddc::SimulationError);
  for (std::size_t c = 0; c < plans.size(); ++c)
    EXPECT_EQ(bank.channel(c).samples_in(), 0u) << "channel " << c;
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

TEST(ChannelBank, PackedRejectsOutOfRangeInputPerLane) {
  const auto plans = detuned_plans(4);
  auto input = stimulus(512);
  input[128] = std::int64_t{1} << 30;  // beyond the 12-bit front end
  ChannelBank bank(plans);
  std::vector<std::vector<IqSample>> got;
  EXPECT_THROW(bank.process_block(input, got), twiddc::SimulationError);
}

// ------------------------------------------------------------ octet units
//
// On an active AVX-512 tier the bank forms 8-channel octets instead of
// quads.  These tests pin the unit seams: octet remainder lanes, the
// AVX-512 runtime cap, the set_packing knob, mid-stream kill-switch flips,
// and full-scale per-lane values (the widest intermediates a packed unit's
// per-lane FIR tail must carry through its narrow_ok fallback).

TEST(ChannelBank, PackedOctetsWithRemainderLanesMatchSolo) {
  // 11 channels: one octet + 3 singles on an active AVX-512 tier, two quads
  // + 3 singles otherwise.  Either grouping must stay solo-exact; the
  // uneven block size exercises the packed tile loop's partial final tile.
  expect_bank_matches_solo(detuned_plans(11), stimulus(2688 * 3 + 1337));
}

TEST(ChannelBank, PackedOctetRemainderQuadMatchesSolo) {
  // 13 channels: octet + quad + single under AVX-512, three quads + single
  // under AVX2 -- every unit size in one bank.
  expect_bank_matches_solo(detuned_plans(13), stimulus(2688 * 3 + 19));
}

TEST(ChannelBank, PackedAvx512CapToggleStaysBitExact) {
  // The same population with the AVX-512 runtime cap forced off (quads
  // only) and left at the host default (octets where the tier is live) must
  // agree bit for bit.  On hosts without AVX-512 both runs take the quad
  // path and the test degenerates to a self-comparison.
  const auto plans = detuned_plans(9);
  const auto input = stimulus(2688 * 3 + 41);
  std::vector<std::vector<IqSample>> want;
  {
    simd::ScopedAvx512 cap(false);
    ChannelBank bank(plans);
    bank.process_block(input, want);
  }
  std::vector<std::vector<IqSample>> got;
  {
    ChannelBank bank(plans);
    bank.process_block(input, got);
  }
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < want.size(); ++c) expect_equal(got[c], want[c], c);
}

TEST(ChannelBank, SetPackingOffMatchesPackedBitExact) {
  // The packing knob is the bench's monolithic baseline: disabling it must
  // change the execution strategy only, never a single output bit.
  const auto plans = detuned_plans(8);
  const auto input = stimulus(2688 * 2 + 77);

  ChannelBank mono(plans);
  mono.set_packing(false);
  EXPECT_FALSE(mono.packing());
  std::vector<std::vector<IqSample>> want;
  mono.process_block(input, want);

  ChannelBank packed(plans);
  EXPECT_TRUE(packed.packing());
  std::vector<std::vector<IqSample>> got;
  packed.process_block(input, got);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t c = 0; c < want.size(); ++c) expect_equal(got[c], want[c], c);
}

TEST(ChannelBank, PackedKillSwitchMidStreamStaysBitExact) {
  // Flip the kill switch off and back on across block seams: units regroup
  // per block, per-lane state (CIC integrators, FIR rings, NCO phase) must
  // carry across the strategy changes.
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

TEST(ChannelBank, PackedFullScaleInputStaysBitExact) {
  // Near-full-scale 12-bit drive produces the widest intermediates in the
  // FIR tail: whether a lane takes the narrow-multiply or the exact wide
  // path, outputs must equal the per-channel reference.
  const auto cfg = DdcConfig::reference(10.0e6);
  const auto input = dsp::quantize_signal(
      dsp::make_tone(10.0025e6, cfg.input_rate_hz, 2688 * 2 + 31, 0.999), 12);
  expect_bank_matches_solo(detuned_plans(8), input);
}

}  // namespace
}  // namespace twiddc::core
