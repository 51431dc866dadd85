#include "src/asic/gc4016.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <span>
#include <vector>

#include "src/common/error.hpp"
#include "src/dsp/signal.hpp"
#include "src/dsp/spectrum.hpp"

namespace twiddc::asic {
namespace {

Gc4016Config one_channel(double input_rate = 80.0e6, int cic_decim = 64) {
  Gc4016Config cfg;
  cfg.input_rate_hz = input_rate;
  Gc4016ChannelConfig ch;
  ch.nco_freq_hz = 20.0e6;
  ch.cic_decimation = cic_decim;
  cfg.channels = {ch};
  return cfg;
}

TEST(Gc4016Config, Table2Capabilities) {
  EXPECT_EQ(Gc4016Limits::kMaxInputMsps, 100.0);
  EXPECT_EQ(Gc4016Limits::kMinTotalDecimation, 32);
  EXPECT_EQ(Gc4016Limits::kMaxTotalDecimation, 16384);
  // 14-bit input -> 4 channels, 16-bit -> 3 channels.
  auto cfg = one_channel();
  cfg.input_bits = 14;
  EXPECT_EQ(cfg.max_channels(), 4);
  cfg.input_bits = 16;
  EXPECT_EQ(cfg.max_channels(), 3);
}

TEST(Gc4016Config, RejectsTooManyChannelsFor16Bit) {
  auto cfg = one_channel();
  cfg.input_bits = 16;
  cfg.channels.assign(4, cfg.channels[0]);
  EXPECT_THROW(cfg.validate(), twiddc::ConfigError);
  cfg.channels.resize(3);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Gc4016Config, RejectsOutOfRangeParameters) {
  auto cfg = one_channel(120.0e6);  // > 100 MSPS
  EXPECT_THROW(cfg.validate(), twiddc::ConfigError);

  cfg = one_channel();
  cfg.input_bits = 12;
  EXPECT_THROW(cfg.validate(), twiddc::ConfigError);

  cfg = one_channel(80.0e6, 4);  // CIC below 8
  EXPECT_THROW(cfg.validate(), twiddc::ConfigError);

  cfg = one_channel(80.0e6, 8192);  // CIC above 4096
  EXPECT_THROW(cfg.validate(), twiddc::ConfigError);

  cfg = one_channel();
  cfg.channels[0].output_bits = 18;
  EXPECT_THROW(cfg.validate(), twiddc::ConfigError);

  cfg = one_channel();
  cfg.channels[0].nco_freq_hz = 50.0e6;  // above Nyquist
  EXPECT_THROW(cfg.validate(), twiddc::ConfigError);

  cfg = one_channel();
  cfg.channels[0].pfir_coeffs.assign(10, 0);  // wrong count
  EXPECT_THROW(cfg.validate(), twiddc::ConfigError);

  cfg = one_channel();
  cfg.channels.clear();
  EXPECT_THROW(cfg.validate(), twiddc::ConfigError);
}

TEST(Gc4016Config, DecimationRangeSweep) {
  for (int d : {8, 16, 64, 1024, 4096}) {
    auto cfg = one_channel(80.0e6, d);
    EXPECT_NO_THROW(cfg.validate()) << d;
    Gc4016 chip(cfg);
    EXPECT_EQ(chip.channel(0).total_decimation(), d * 4);
  }
}

TEST(Gc4016, GsmExampleRates) {
  const auto cfg = Gc4016Config::gsm_example();
  cfg.validate();
  Gc4016 chip(cfg);
  // 69.333 MHz / 256 = 270.833 kHz (section 3.1.2).
  EXPECT_NEAR(chip.channel(0).output_rate_hz(cfg.input_rate_hz), 270.833e3, 10.0);
  EXPECT_EQ(chip.channel(0).total_decimation(), 256);
}

TEST(Gc4016, OutputCadenceMatchesDecimation) {
  Gc4016 chip(one_channel(80.0e6, 64));  // total 256
  int outputs = 0;
  for (int i = 0; i < 256 * 10; ++i) {
    outputs += static_cast<int>(chip.push(0).size());
  }
  EXPECT_EQ(outputs, 10);
}

TEST(Gc4016, SelectsConfiguredBand) {
  auto cfg = one_channel(80.0e6, 64);
  cfg.channels[0].nco_freq_hz = 20.0e6;
  Gc4016 chip(cfg);
  const double offset = 30.0e3;  // within the 312 kHz-wide output band
  const auto analog = dsp::make_tone(20.0e6 + offset, 80.0e6, 256 * 800, 0.7);
  const auto in = dsp::quantize_signal(analog, 14);
  std::vector<std::complex<double>> iq;
  for (auto x : in) {
    for (const auto& o : chip.push(x))
      iq.emplace_back(static_cast<double>(o.i), -static_cast<double>(o.q));
  }
  ASSERT_GE(iq.size(), 512u);
  iq.erase(iq.begin(), iq.begin() + 32);
  const auto s = dsp::periodogram_complex(iq, 80.0e6 / 256.0);
  EXPECT_NEAR(s.freq(s.peak_bin()), offset, 2.0 * s.bin_hz);
}

TEST(Gc4016, RejectsDistantInterferer) {
  auto run = [&](double tone_offset) {
    Gc4016 chip(one_channel(80.0e6, 64));
    const auto analog = dsp::make_tone(20.0e6 + tone_offset, 80.0e6, 256 * 400, 0.7);
    const auto in = dsp::quantize_signal(analog, 14);
    double power = 0.0;
    int n = 0;
    for (auto x : in) {
      for (const auto& o : chip.push(x)) {
        if (++n > 32)
          power += static_cast<double>(o.i) * o.i + static_cast<double>(o.q) * o.q;
      }
    }
    return power;
  };
  EXPECT_GT(run(30.0e3) / (run(2.0e6) + 1.0), 1.0e4);  // > 40 dB
}

TEST(Gc4016, FourIndependentChannels) {
  auto cfg = one_channel(80.0e6, 64);
  cfg.channels.assign(4, cfg.channels[0]);
  cfg.channels[1].nco_freq_hz = 10.0e6;
  cfg.channels[2].nco_freq_hz = 30.0e6;
  cfg.channels[3].enabled = false;
  Gc4016 chip(cfg);
  EXPECT_EQ(chip.enabled_channels(), 3);
  int outputs = 0;
  for (int i = 0; i < 256 * 4; ++i) outputs += static_cast<int>(chip.push(100).size());
  EXPECT_EQ(outputs, 3 * 4);  // three enabled channels, four frames
}

TEST(Gc4016, AdderCombinesSimultaneousOutputs) {
  auto cfg = one_channel(80.0e6, 64);
  cfg.channels.assign(2, cfg.channels[0]);
  cfg.combine = Gc4016Config::Combine::kAdd;
  Gc4016 chip(cfg);
  for (int i = 0; i < 255; ++i) chip.push(1000);
  const auto outs = chip.push(1000);
  ASSERT_EQ(outs.size(), 1u);  // combined
  EXPECT_EQ(outs[0].channel, -1);
  // Identical channels -> the sum is twice one channel's output.
  Gc4016 single(one_channel(80.0e6, 64));
  std::vector<Gc4016Output> souts;
  for (int i = 0; i < 256; ++i) {
    for (const auto& o : single.push(1000)) souts.push_back(o);
  }
  ASSERT_EQ(souts.size(), 1u);
  EXPECT_EQ(outs[0].i, 2 * souts[0].i);
  EXPECT_EQ(outs[0].q, 2 * souts[0].q);
}

TEST(Gc4016, InputWidthEnforced) {
  Gc4016 chip(one_channel());
  EXPECT_THROW(chip.push(10000), twiddc::SimulationError);   // > 13 bits
  EXPECT_NO_THROW(chip.push(8191));
  EXPECT_NO_THROW(chip.push(-8192));
}

TEST(Gc4016Power, DatasheetOperatingPoint) {
  // One channel at 80 MHz: the documented 115 mW.
  Gc4016Config cfg = one_channel(80.0e6, 64);
  Gc4016 chip(cfg);
  EXPECT_NEAR(chip.power_mw_native(), 115.0, 1e-9);
}

TEST(Gc4016Power, ScalesWithClockAndChannels) {
  auto cfg = one_channel(40.0e6, 64);
  cfg.channels[0].nco_freq_hz = 10.0e6;  // stay below the 20 MHz Nyquist
  cfg.channels.assign(2, cfg.channels[0]);
  Gc4016 chip(cfg);
  // Two channels at half clock: 2 * 115 * 0.5.
  EXPECT_NEAR(chip.power_mw_native(), 115.0, 1e-9);
}

TEST(Gc4016Power, TechnologyScaledRowMatchesTable7) {
  Gc4016 chip(one_channel(80.0e6, 64));
  EXPECT_NEAR(chip.power_mw_at(energy::TechnologyNode::um130()), 13.8, 0.05);
}

TEST(Gc4016, ResetReproducesRun) {
  Gc4016 chip(one_channel(80.0e6, 64));
  const auto analog = dsp::make_tone(20.01e6, 80.0e6, 256 * 6, 0.5);
  const auto in = dsp::quantize_signal(analog, 14);
  std::vector<Gc4016Output> first;
  for (auto x : in)
    for (const auto& o : chip.push(x)) first.push_back(o);
  chip.reset();
  std::vector<Gc4016Output> second;
  for (auto x : in)
    for (const auto& o : chip.push(x)) second.push_back(o);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].i, second[i].i);
    EXPECT_EQ(first[i].q, second[i].q);
  }
}

std::vector<std::int64_t> four_channel_stimulus(const Gc4016Config& cfg,
                                                std::size_t n) {
  return twiddc::dsp::quantize_signal(
      twiddc::dsp::make_tone(17.5e6, cfg.input_rate_hz, n, 0.7), cfg.input_bits);
}

Gc4016Config four_channels(Gc4016Config::Combine combine) {
  Gc4016Config cfg;
  cfg.input_rate_hz = 80.0e6;
  cfg.combine = combine;
  for (int c = 0; c < 4; ++c) {
    Gc4016ChannelConfig ch;
    ch.nco_freq_hz = 5.0e6 * (c + 1);
    // Different decimations per channel: the block-path merge has to
    // interleave output instants exactly like push() does.
    ch.cic_decimation = c % 2 == 0 ? 8 : 16;
    cfg.channels.push_back(ch);
  }
  return cfg;
}

TEST(Gc4016, BlockPathMatchesPushPathAcrossChannels) {
  // Two chips.  With mixed CIC decimations the block-path merge has to
  // interleave output instants exactly like push() does.  With one shared
  // decimation every channel emits on the same instants, so the merge
  // collects four outputs per instant (and kAdd sums all four).
  auto one_decimation = four_channels(Gc4016Config::Combine::kMultiplex);
  for (auto& ch : one_decimation.channels) ch.cic_decimation = 16;
  for (Gc4016Config cfg :
       {four_channels(Gc4016Config::Combine::kMultiplex), one_decimation}) {
    SCOPED_TRACE(cfg.channels[0].cic_decimation == cfg.channels[1].cic_decimation
                     ? "one decimation"
                     : "mixed decimations");
    for (auto combine :
         {Gc4016Config::Combine::kMultiplex, Gc4016Config::Combine::kAdd}) {
      SCOPED_TRACE(combine == Gc4016Config::Combine::kAdd ? "add" : "multiplex");
      cfg.combine = combine;
      // The second block is 11000 samples: many CIC decimations, and many
      // merge instants, in one pass per channel.
      const auto input = four_channel_stimulus(cfg, 12000);

      Gc4016 by_push(cfg);
      std::vector<Gc4016Output> want;
      for (std::int64_t x : input)
        for (const auto& o : by_push.push(x)) want.push_back(o);

      Gc4016 by_block(cfg);
      std::vector<Gc4016Output> got;
      // Two blocks: the merge must resume mid-revolution across the seam,
      // which also falls mid-way through a CIC decimation.
      const std::size_t cut = 1000;
      by_block.process_block(std::span<const std::int64_t>(input.data(), cut), got);
      by_block.process_block(
          std::span<const std::int64_t>(input.data() + cut, input.size() - cut), got);

      ASSERT_EQ(got.size(), want.size());
      for (std::size_t k = 0; k < want.size(); ++k) {
        ASSERT_EQ(got[k].channel, want[k].channel) << "k=" << k;
        ASSERT_EQ(got[k].i, want[k].i) << "k=" << k;
        ASSERT_EQ(got[k].q, want[k].q) << "k=" << k;
      }
    }
  }
}

TEST(Gc4016, PushThenBlockContinuesOneStream) {
  // push() and process_block() advance the same per-channel state, so a
  // stream may switch from one to the other mid-way: the first 1000 samples
  // through push(), the rest through process_block(), must equal a push-only
  // chip.  1000 is not a multiple of any channel's total decimation, so the
  // switch falls mid-revolution.
  for (auto combine : {Gc4016Config::Combine::kMultiplex, Gc4016Config::Combine::kAdd}) {
    SCOPED_TRACE(combine == Gc4016Config::Combine::kAdd ? "add" : "multiplex");
    const Gc4016Config cfg = four_channels(combine);
    const auto input = four_channel_stimulus(cfg, 6000);
    const std::size_t cut = 1000;

    Gc4016 by_push(cfg);
    std::vector<Gc4016Output> want;
    for (std::int64_t x : input)
      for (const auto& o : by_push.push(x)) want.push_back(o);

    Gc4016 mixed(cfg);
    std::vector<Gc4016Output> got;
    for (std::size_t k = 0; k < cut; ++k)
      for (const auto& o : mixed.push(input[k])) got.push_back(o);
    mixed.process_block(
        std::span<const std::int64_t>(input.data() + cut, input.size() - cut), got);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(got[k].channel, want[k].channel) << "k=" << k;
      ASSERT_EQ(got[k].i, want[k].i) << "k=" << k;
      ASSERT_EQ(got[k].q, want[k].q) << "k=" << k;
    }
  }
}

TEST(Gc4016, DisabledChannelSkippedInBlockPath) {
  auto cfg = four_channels(Gc4016Config::Combine::kMultiplex);
  cfg.channels[2].enabled = false;
  const auto input = four_channel_stimulus(cfg, 2048);

  Gc4016 by_push(cfg);
  std::vector<Gc4016Output> want;
  for (std::int64_t x : input)
    for (const auto& o : by_push.push(x)) want.push_back(o);

  Gc4016 by_block(cfg);
  std::vector<Gc4016Output> got;
  by_block.process_block(input, got);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_NE(got[k].channel, 2) << "k=" << k;
    ASSERT_EQ(got[k].channel, want[k].channel) << "k=" << k;
    ASSERT_EQ(got[k].i, want[k].i) << "k=" << k;
    ASSERT_EQ(got[k].q, want[k].q) << "k=" << k;
  }
}

TEST(Gc4016Channel, Figure4PlanHasFloatRailEquivalents) {
  // The channel's ChainPlan must carry the float-rail view too, so
  // make_float_rail(channel.pipeline().plan()) yields a sanely scaled
  // golden twin (unity-order outputs, not 2^growth too large).
  auto cfg = one_channel(69.333e6, 64);
  Gc4016 chip(cfg);
  auto& ch = chip.channel(0);
  const auto& plan = ch.pipeline().plan();
  for (const auto& stage : plan.stages) {
    EXPECT_FALSE(stage.taps.empty() && stage.taps_float.empty() &&
                 stage.kind != core::StageSpec::Kind::kCic)
        << stage.label;
  }
  EXPECT_DOUBLE_EQ(plan.stages[0].post_scale,
                   std::ldexp(1.0, -plan.stages[0].post_shift));
  EXPECT_EQ(plan.stages[1].taps_float.size(), plan.stages[1].taps.size());
  EXPECT_EQ(plan.stages[2].taps_float.size(), plan.stages[2].taps.size());

  auto rail = core::make_float_rail(plan);
  std::vector<double> out;
  // Enough input to fill the 63-tap PFIR delay line (it runs at 1/256 of
  // the input rate), so the final outputs reflect the full DC gain.
  std::vector<double> in(static_cast<std::size_t>(ch.total_decimation()) * 80, 0.5);
  rail.process_block(in, out);
  ASSERT_FALSE(out.empty());
  // DC input of 0.5 through a normalised chain stays order-of-unity.
  EXPECT_LT(std::abs(out.back()), 4.0);
  EXPECT_GT(std::abs(out.back()), 0.01);
}

}  // namespace
}  // namespace twiddc::asic
