// twiddc::asic -- behavioral model of the TI GC4016 multi-standard quad
// DDC chip (paper section 3.1, Table 2, Figure 4).
//
// Each of the four channels implements (Figure 4):
//
//   in -> [NCO + mixer] -> CIC5 (dec 8..4096) -> CFIR 21 taps (dec 2)
//      -> PFIR 63 taps (dec 2) -> output (12/16/20/24 bit)
//
// and the channels can be combined with a multiplexer or an adder.  The
// CFIR ships with CIC-droop-compensating coefficients (its documented role);
// the PFIR coefficients are programmable.  Power comes from the datasheet
// operating point the paper uses: 115 mW per channel at 80 MHz, 2.5 V,
// 0.25 um.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/energy/technology.hpp"

namespace twiddc::asic {

/// Capability constants from Table 2 / the datasheet.
struct Gc4016Limits {
  static constexpr double kMaxInputMsps = 100.0;
  static constexpr int kMinCicDecimation = 8;
  static constexpr int kMaxCicDecimation = 4096;
  static constexpr int kMinTotalDecimation = 32;     // 8 * 2 * 2
  static constexpr int kMaxTotalDecimation = 16384;  // 4096 * 2 * 2
  static constexpr int kCfirTaps = 21;
  static constexpr int kPfirTaps = 63;
  static constexpr int kChannels14Bit = 4;
  static constexpr int kChannels16Bit = 3;
  /// Datasheet GSM operating point the paper quotes.
  static constexpr double kGsmPowerMwPerChannel = 115.0;
  static constexpr double kGsmClockMhz = 80.0;
};

/// Per-channel configuration.
struct Gc4016ChannelConfig {
  bool enabled = true;
  double nco_freq_hz = 0.0;
  int cic_decimation = 64;                 ///< 8..4096
  int output_bits = 16;                    ///< 12, 16, 20 or 24
  /// PFIR coefficients in Q1.15; empty selects a default lowpass.
  std::vector<std::int32_t> pfir_coeffs;
};

/// Chip-level configuration.
struct Gc4016Config {
  double input_rate_hz = 80.0e6;           ///< chip clock == input sample rate
  int input_bits = 14;                     ///< 14 (4 channels) or 16 (3 channels)
  enum class Combine { kMultiplex, kAdd } combine = Combine::kMultiplex;
  std::vector<Gc4016ChannelConfig> channels;

  [[nodiscard]] int max_channels() const {
    return input_bits == 14 ? Gc4016Limits::kChannels14Bit
                            : Gc4016Limits::kChannels16Bit;
  }
  /// Throws ConfigError on any Table 2 violation.
  void validate() const;

  /// The datasheet GSM example (section 3.1.2): 69.333 MHz in, CIC
  /// decimation 64, total decimation 256, 270.833 kHz out.
  static Gc4016Config gsm_example();
};

/// One complex output sample tagged with its source channel.
struct Gc4016Output {
  int channel = 0;
  std::int64_t i = 0;
  std::int64_t q = 0;
};

/// One channel's datapath.  Since the stage-pipeline refactor this is a thin
/// shim: the Figure 4 topology (CIC5 -> CFIR -> PFIR) is expressed as a
/// ChainPlan and the chip owns the channel's core::DdcPipeline; the channel
/// object only binds its configuration to that pipeline.
class Gc4016Channel {
 public:
  std::optional<Gc4016Output> push(std::int64_t x);
  /// Block hot path: bit-exact with a push() loop.
  void process_block(std::span<const std::int64_t> in, std::vector<Gc4016Output>& out);
  void reset();

  [[nodiscard]] int total_decimation() const { return cfg_.cic_decimation * 4; }
  [[nodiscard]] double output_rate_hz(double input_rate_hz) const {
    return input_rate_hz / total_decimation();
  }
  /// The underlying pipeline (shared-architecture access point).
  [[nodiscard]] core::DdcPipeline& pipeline() { return *pipeline_; }
  [[nodiscard]] const std::vector<std::int64_t>& cfir_taps() const {
    return pipeline_->plan().stages[1].taps;
  }
  [[nodiscard]] const std::vector<std::int64_t>& pfir_taps() const {
    return pipeline_->plan().stages[2].taps;
  }
  [[nodiscard]] double output_scale() const;

  /// The Figure 4 topology as a ChainPlan (what the chip's pipelines run).
  static core::ChainPlan figure4_plan(const Gc4016ChannelConfig& config,
                                      double input_rate_hz, int input_bits);

 private:
  Gc4016Channel(const Gc4016ChannelConfig& config, core::DdcPipeline* pipeline,
                int index)
      : cfg_(config), pipeline_(pipeline), channel_index_(index) {}

  Gc4016ChannelConfig cfg_;
  core::DdcPipeline* pipeline_ = nullptr;  // owned by the chip
  std::vector<core::IqSample> scratch_;
  int channel_index_ = 0;
  friend class Gc4016;
};

/// The quad chip.  It owns one core::DdcPipeline per channel, which both the
/// per-sample push() and the block path advance, so the two paths share one
/// state per channel and can be mixed on one stream.
class Gc4016 {
 public:
  explicit Gc4016(const Gc4016Config& config);

  /// Plan -> chip lowering: accepts exactly the Figure 4 family (CIC5 with
  /// a decimation in [8,4096] -> 21-tap CFIR -> 63-tap programmable PFIR,
  /// each FIR decimating by 2) at a 14/16-bit input and a Table 2 output
  /// width, and returns the single-channel chip configuration realising the
  /// plan.  Throws core::LoweringError naming the first unmappable feature.
  static Gc4016Config lower_plan(const core::ChainPlan& plan);

  /// Pushes one input sample into every enabled channel; returns any outputs
  /// produced this cycle (combined per `Combine`: kMultiplex tags each with
  /// its channel, kAdd sums simultaneous outputs into channel -1).
  std::vector<Gc4016Output> push(std::int64_t x);

  /// Block hot path: runs the whole block through every enabled channel's
  /// pipeline, then merges the planar per-channel outputs back into push()'s
  /// time order (and kAdd's summing of simultaneous outputs).  Bit-exact
  /// with a push() loop.
  void process_block(std::span<const std::int64_t> in, std::vector<Gc4016Output>& out);

  void reset();

  [[nodiscard]] const Gc4016Config& config() const { return config_; }
  [[nodiscard]] int enabled_channels() const;
  [[nodiscard]] Gc4016Channel& channel(int idx) { return channels_.at(static_cast<std::size_t>(idx)); }

  /// Power at the chip's native 0.25 um node for the configured clock:
  /// the datasheet per-channel figure scaled linearly in frequency.
  [[nodiscard]] double power_mw_native() const;
  /// Power scaled to another technology node via the paper's rule.
  [[nodiscard]] double power_mw_at(const energy::TechnologyNode& node) const;
  [[nodiscard]] static energy::TechnologyNode native_node() {
    return energy::TechnologyNode::um250();
  }

 private:
  Gc4016Config config_;
  std::vector<core::DdcPipeline> pipelines_;  // one per configured channel
  std::vector<Gc4016Channel> channels_;
  std::vector<std::vector<core::IqSample>> planar_;  // process_block scratch
};

}  // namespace twiddc::asic
