#include "src/asic/gc4016.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/error.hpp"
#include "src/core/backend.hpp"
#include "src/dsp/fir_design.hpp"
#include "src/fixed/qformat.hpp"

namespace twiddc::asic {
namespace {

// Internal datapath widths of the channel model: 16-bit words after the
// mixer (the chip's internal precision class), Q1.15 coefficients, 40-bit
// accumulators.
constexpr int kInternalBits = 16;
constexpr int kNcoBits = 16;
constexpr int kCoeffFrac = 15;

std::vector<std::int64_t> widen(const std::vector<std::int32_t>& v) {
  return {v.begin(), v.end()};
}

}  // namespace

void Gc4016Config::validate() const {
  if (input_bits != 14 && input_bits != 16)
    throw ConfigError("Gc4016: input width must be 14 or 16 bits (Table 2), got " +
                      std::to_string(input_bits));
  if (input_rate_hz <= 0.0 || input_rate_hz > Gc4016Limits::kMaxInputMsps * 1e6)
    throw ConfigError("Gc4016: input rate must be in (0, 100] MSPS, got " +
                      std::to_string(input_rate_hz / 1e6) + " MSPS");
  if (channels.empty())
    throw ConfigError("Gc4016: at least one channel must be configured");
  if (static_cast<int>(channels.size()) > max_channels())
    throw ConfigError("Gc4016: " + std::to_string(channels.size()) +
                      " channels configured but only " + std::to_string(max_channels()) +
                      " available at " + std::to_string(input_bits) + "-bit input");
  for (std::size_t c = 0; c < channels.size(); ++c) {
    const auto& ch = channels[c];
    if (!ch.enabled) continue;
    if (ch.cic_decimation < Gc4016Limits::kMinCicDecimation ||
        ch.cic_decimation > Gc4016Limits::kMaxCicDecimation)
      throw ConfigError("Gc4016 channel " + std::to_string(c) +
                        ": CIC decimation must be in [8,4096], got " +
                        std::to_string(ch.cic_decimation));
    const int total = ch.cic_decimation * 4;
    if (total < Gc4016Limits::kMinTotalDecimation ||
        total > Gc4016Limits::kMaxTotalDecimation)
      throw ConfigError("Gc4016 channel " + std::to_string(c) +
                        ": total decimation out of [32,16384]");
    if (ch.output_bits != 12 && ch.output_bits != 16 && ch.output_bits != 20 &&
        ch.output_bits != 24)
      throw ConfigError("Gc4016 channel " + std::to_string(c) +
                        ": output width must be 12, 16, 20 or 24 bits");
    if (ch.nco_freq_hz < 0.0 || ch.nco_freq_hz >= input_rate_hz / 2.0)
      throw ConfigError("Gc4016 channel " + std::to_string(c) +
                        ": NCO frequency out of [0, input_rate/2)");
    if (!ch.pfir_coeffs.empty() &&
        ch.pfir_coeffs.size() != static_cast<std::size_t>(Gc4016Limits::kPfirTaps))
      throw ConfigError("Gc4016 channel " + std::to_string(c) + ": PFIR needs exactly " +
                        std::to_string(Gc4016Limits::kPfirTaps) + " coefficients");
  }
}

Gc4016Config Gc4016Config::gsm_example() {
  Gc4016Config cfg;
  cfg.input_rate_hz = 69.333e6;
  cfg.input_bits = 14;
  Gc4016ChannelConfig ch;
  ch.nco_freq_hz = 15.0e6;   // representative carrier
  ch.cic_decimation = 64;    // 64 * 2 * 2 = 256 -> 270.833 kHz out
  ch.output_bits = 16;
  cfg.channels = {ch};
  return cfg;
}

core::ChainPlan Gc4016Channel::figure4_plan(const Gc4016ChannelConfig& config,
                                            double input_rate_hz, int input_bits) {
  core::ChainPlan plan;
  plan.name = "gc4016:figure4";
  plan.input_rate_hz = input_rate_hz;
  plan.front_end.nco_freq_hz = config.nco_freq_hz;
  plan.front_end.nco_amplitude_bits = kNcoBits;
  plan.front_end.nco_table_bits = 10;
  plan.front_end.input_bits = input_bits;
  plan.front_end.mixer_out_bits = kInternalBits;

  core::StageSpec cic =
      core::StageSpec::cic("cic5", 5, config.cic_decimation, kInternalBits);
  // Large decimations grow past a 63-bit register (5*log2(4096) = 60 bits of
  // growth on a 16-bit input).  Real silicon prunes LSBs through the
  // integrator cascade (Hogenauer); distribute the required discard over the
  // stages, weighting the later stages (whose noise is least amplified).
  const int growth = fixed::cic_bit_growth(5, config.cic_decimation);
  int prune_total = std::max(0, kInternalBits + growth - 63);
  if (prune_total > 0) {
    std::vector<int> shifts(5, 0);
    for (int s = 4; prune_total > 0; s = s == 0 ? 4 : s - 1) {
      ++shifts[static_cast<std::size_t>(s)];
      --prune_total;
    }
    cic.prune_shifts = shifts;
  }
  int pruned_bits = 0;
  for (int s : cic.prune_shifts) pruned_bits += s;
  cic.register_bits = kInternalBits + growth - pruned_bits;
  cic.post_shift = growth - pruned_bits;
  cic.narrow_bits = kInternalBits;
  cic.rounding = fixed::Rounding::kNearest;
  cic.post_scale = std::ldexp(1.0, -cic.post_shift);

  // CFIR: the droop compensator for the CIC5 that runs at cic_decimation
  // times this filter's rate.  Passband up to 80% of the post-CFIR Nyquist.
  const auto cfir_ideal = dsp::design_cic_compensator(
      Gc4016Limits::kCfirTaps, 0.8 * 0.25, 5, config.cic_decimation);
  core::StageSpec cfir = core::StageSpec::fir(
      "cfir", widen(dsp::quantize_coefficients(cfir_ideal, kCoeffFrac)), cfir_ideal, 2);
  cfir.post_shift = kCoeffFrac;
  cfir.narrow_bits = kInternalBits;
  cfir.rounding = fixed::Rounding::kNearest;

  std::vector<std::int64_t> pfir_quantised;
  std::vector<double> pfir_float;
  if (config.pfir_coeffs.empty()) {
    pfir_float =
        dsp::design_lowpass(Gc4016Limits::kPfirTaps, 0.8 * 0.25, dsp::Window::kBlackman);
    pfir_quantised = widen(dsp::quantize_coefficients(pfir_float, kCoeffFrac));
  } else {
    pfir_quantised = widen(config.pfir_coeffs);
    // Float-rail equivalent of the user's Q1.15 coefficients.
    pfir_float.reserve(pfir_quantised.size());
    for (std::int64_t c : pfir_quantised)
      pfir_float.push_back(std::ldexp(static_cast<double>(c), -kCoeffFrac));
  }
  core::StageSpec pfir =
      core::StageSpec::fir("pfir", std::move(pfir_quantised), std::move(pfir_float), 2);
  // Final requantisation to the configured output width.
  pfir.post_shift = kCoeffFrac + (kInternalBits - config.output_bits);
  pfir.narrow_bits = config.output_bits;
  pfir.rounding = fixed::Rounding::kNearest;

  plan.stages = {std::move(cic), std::move(cfir), std::move(pfir)};
  return plan;
}

Gc4016Config Gc4016::lower_plan(const core::ChainPlan& plan) {
  const std::string who = "asic-gc4016";
  plan.validate();

  // Structural pattern of Figure 4: CIC5 -> CFIR (D=2) -> PFIR (D=2).
  if (plan.stages.size() != 3)
    throw core::LoweringError(who, "the channel datapath is the fixed Figure 4 "
                              "chain (CIC5 -> CFIR -> PFIR); plan has " +
                              std::to_string(plan.stages.size()) + " stages");
  const core::StageSpec& cic = plan.stages[0];
  const core::StageSpec& cfir = plan.stages[1];
  const core::StageSpec& pfir = plan.stages[2];
  if (cic.kind != core::StageSpec::Kind::kCic || cic.cic_stages != 5)
    throw core::LoweringError(who, "the first stage must be the chip's 5-stage CIC");
  if (cic.decimation < Gc4016Limits::kMinCicDecimation ||
      cic.decimation > Gc4016Limits::kMaxCicDecimation)
    throw core::LoweringError(who, "CIC decimation " + std::to_string(cic.decimation) +
                              " outside the chip's [8,4096] range (Table 2)");
  auto check_fir = [&](const core::StageSpec& s, const char* name, int taps) {
    if (s.kind != core::StageSpec::Kind::kFirDecimator || s.decimation != 2 ||
        s.taps.size() != static_cast<std::size_t>(taps))
      throw core::LoweringError(who, std::string("stage '") + s.label + "' must be "
                                "the chip's " + std::to_string(taps) + "-tap " + name +
                                " decimating by 2");
  };
  check_fir(cfir, "CFIR", Gc4016Limits::kCfirTaps);
  check_fir(pfir, "PFIR", Gc4016Limits::kPfirTaps);

  // Recover the chip configuration.
  Gc4016Config config;
  config.input_rate_hz = plan.input_rate_hz;
  config.input_bits = plan.front_end.input_bits;
  Gc4016ChannelConfig ch;
  ch.nco_freq_hz = plan.front_end.nco_freq_hz;
  ch.cic_decimation = cic.decimation;
  ch.output_bits = pfir.narrow_bits;
  ch.pfir_coeffs.reserve(pfir.taps.size());
  for (std::int64_t c : pfir.taps) {
    if (c < INT32_MIN || c > INT32_MAX)
      throw core::LoweringError(who, "PFIR coefficient " + std::to_string(c) +
                                " does not fit the chip's coefficient registers");
    ch.pfir_coeffs.push_back(static_cast<std::int32_t>(c));
  }
  config.channels = {ch};
  try {
    config.validate();
  } catch (const ConfigError& e) {
    throw core::LoweringError(who, std::string("recovered chip configuration is "
                              "invalid: ") + e.what());
  }

  // The plan must be exactly the chip's realisation of that configuration
  // (NCO format, internal 16-bit precision class, droop-compensating CFIR,
  // Hogenauer pruning pattern, per-stage conditioning).  The PFIR taps were
  // carried into `ch`, so the programmable filter matches by construction;
  // everything else must equal the chip's own derivation.
  const core::ChainPlan ref =
      Gc4016Channel::figure4_plan(ch, config.input_rate_hz, config.input_bits);
  core::check_plan_matches_reference(plan, ref, who, "gc4016-internal16");
  return config;
}

void Gc4016Channel::reset() { pipeline_->reset(); }

double Gc4016Channel::output_scale() const {
  return 1.0 / static_cast<double>(std::int64_t{1} << (cfg_.output_bits - 1));
}

std::optional<Gc4016Output> Gc4016Channel::push(std::int64_t x) {
  const auto y = pipeline_->push(x);
  if (!y) return std::nullopt;
  return Gc4016Output{channel_index_, y->i, y->q};
}

void Gc4016Channel::process_block(std::span<const std::int64_t> in,
                                  std::vector<Gc4016Output>& out) {
  scratch_.clear();
  pipeline_->process_block(in, scratch_);
  for (const auto& y : scratch_) out.push_back(Gc4016Output{channel_index_, y.i, y.q});
}

namespace {
std::vector<core::DdcPipeline> figure4_pipelines(const Gc4016Config& config) {
  config.validate();
  std::vector<core::DdcPipeline> pipelines;
  pipelines.reserve(config.channels.size());
  for (const auto& ch : config.channels)
    pipelines.emplace_back(
        Gc4016Channel::figure4_plan(ch, config.input_rate_hz, config.input_bits));
  return pipelines;
}
}  // namespace

Gc4016::Gc4016(const Gc4016Config& config)
    : config_(config),
      pipelines_(figure4_pipelines(config)),
      planar_(pipelines_.size()) {
  for (std::size_t c = 0; c < config.channels.size(); ++c)
    channels_.push_back(
        Gc4016Channel(config.channels[c], &pipelines_[c], static_cast<int>(c)));
}

void Gc4016::process_block(std::span<const std::int64_t> in,
                           std::vector<Gc4016Output>& out) {
  if (in.empty()) return;
  // All-or-nothing: reject the whole block before any channel advances.
  core::check_input_block(in, config_.input_bits, "Gc4016::process_block");
  // Capture each enabled channel's input count before its block pass so the
  // planar outputs can be replayed in push()'s time order afterwards.
  struct Cursor {
    std::size_t channel;
    std::uint64_t next_out_at;  // local input index after which output k emerges
    std::uint64_t decimation;
    std::size_t k = 0;
  };
  std::vector<Cursor> cursors;
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    if (!config_.channels[c].enabled) continue;
    const core::DdcPipeline& pipe = pipelines_[c];
    const auto d = static_cast<std::uint64_t>(pipe.total_decimation());
    // The pre-block sample count is mid-revolution in general; the first
    // output of this block appears once the count reaches the next multiple
    // of the channel's total decimation.
    const std::uint64_t pre = pipe.samples_in();
    cursors.push_back(Cursor{c, (pre / d + 1) * d - pre, d});
  }

  for (const auto& cur : cursors) {
    planar_[cur.channel].clear();
    pipelines_[cur.channel].process_block(in, planar_[cur.channel]);
  }

  // Merge planar outputs back into the per-cycle order push() produces:
  // ascending output instant, channel index breaking ties; kAdd sums
  // simultaneous outputs into the virtual channel -1.
  std::size_t remaining = 0;
  for (const auto& cur : cursors) remaining += planar_[cur.channel].size();
  while (remaining > 0) {
    // Earliest next output instant across channels (<= 4 of them).
    std::uint64_t t = 0;
    bool have = false;
    for (const auto& cur : cursors) {
      if (cur.k >= planar_[cur.channel].size()) continue;
      if (!have || cur.next_out_at < t) {
        t = cur.next_out_at;
        have = true;
      }
    }
    // Collect every output of this instant (channel order == push order).
    Gc4016Output cycle[Gc4016Limits::kChannels14Bit];
    int produced = 0;
    for (auto& cur : cursors) {
      if (cur.k >= planar_[cur.channel].size() || cur.next_out_at != t) continue;
      const core::IqSample& y = planar_[cur.channel][cur.k];
      ++cur.k;
      cur.next_out_at += cur.decimation;
      --remaining;
      cycle[produced++] = Gc4016Output{static_cast<int>(cur.channel), y.i, y.q};
    }
    if (config_.combine == Gc4016Config::Combine::kAdd && produced > 1) {
      Gc4016Output sum{-1, 0, 0};
      for (int j = 0; j < produced; ++j) {
        sum.i += cycle[j].i;
        sum.q += cycle[j].q;
      }
      out.push_back(sum);
    } else {
      for (int j = 0; j < produced; ++j) out.push_back(cycle[j]);
    }
  }
}

int Gc4016::enabled_channels() const {
  int n = 0;
  for (const auto& ch : config_.channels)
    if (ch.enabled) ++n;
  return n;
}

void Gc4016::reset() {
  for (auto& ch : channels_) ch.reset();
}

std::vector<Gc4016Output> Gc4016::push(std::int64_t x) {
  if (!fixed::fits_bits(x, config_.input_bits))
    throw SimulationError("Gc4016::push: input does not fit " +
                          std::to_string(config_.input_bits) + " bits");
  std::vector<Gc4016Output> outs;
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    if (!config_.channels[c].enabled) continue;
    if (auto y = channels_[c].push(x)) outs.push_back(*y);
  }
  if (config_.combine == Gc4016Config::Combine::kAdd && outs.size() > 1) {
    Gc4016Output sum{-1, 0, 0};
    for (const auto& o : outs) {
      sum.i += o.i;
      sum.q += o.q;
    }
    return {sum};
  }
  return outs;
}

double Gc4016::power_mw_native() const {
  // Datasheet operating point: 115 mW per active channel at 80 MHz.  The
  // chip is clocked at the input sample rate, and dynamic power scales
  // linearly with clock (section 3.1.2's model).
  const double f_mhz = config_.input_rate_hz / 1e6;
  return Gc4016Limits::kGsmPowerMwPerChannel * (f_mhz / Gc4016Limits::kGsmClockMhz) *
         enabled_channels();
}

double Gc4016::power_mw_at(const energy::TechnologyNode& node) const {
  return energy::scale_power_mw(power_mw_native(), native_node(), node);
}

}  // namespace twiddc::asic
