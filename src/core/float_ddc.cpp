#include "src/core/float_ddc.hpp"

#include <cmath>

#include "src/common/error.hpp"
#include "src/dsp/nco.hpp"

namespace twiddc::core {
namespace {
constexpr double kTwoPi = 6.28318530717958647692528676655900577;

double quantised_phase_step(double freq_hz, double sample_rate_hz) {
  // Use the NCO's *quantised* tuning frequency so fixed and float chains mix
  // with the identical frequency (a raw-frequency mismatch of a fraction of
  // a hertz would dominate the error over long runs).
  const std::uint32_t word = dsp::PhaseAccumulator::tuning_word(freq_hz, sample_rate_hz);
  return kTwoPi * static_cast<double>(word) * 0x1p-32;
}
}  // namespace

FloatDdc::FloatDdc(const DdcConfig& config) : config_(config) {
  const ChainPlan plan = ChainPlan::figure1_float(config);
  fir_taps_ = plan.stages.back().taps_float;
  rails_.push_back(make_float_rail(plan));
  rails_.push_back(make_float_rail(plan));
  phase_step_ = quantised_phase_step(config_.nco_freq_hz, config_.input_rate_hz);
}

void FloatDdc::reset() {
  for (auto& rail : rails_) rail.reset();
  phase_ = 0.0;
  samples_in_ = 0;
}

void FloatDdc::set_nco_frequency(double freq_hz) {
  if (freq_hz < 0.0 || freq_hz >= config_.input_rate_hz / 2.0)
    throw ConfigError("set_nco_frequency: frequency out of range");
  config_.nco_freq_hz = freq_hz;
  phase_step_ = quantised_phase_step(freq_hz, config_.input_rate_hz);
}

std::optional<std::complex<double>> FloatDdc::push(double x) {
  ++samples_in_;
  const double c = std::cos(phase_);
  const double s = std::sin(phase_);
  phase_ += phase_step_;
  if (phase_ >= kTwoPi) phase_ -= kTwoPi;

  const auto i_out = rails_[0].push(x * c);
  const auto q_out = rails_[1].push(x * s);
  if (i_out.has_value() != q_out.has_value())
    throw SimulationError("FloatDdc: I/Q rails lost rate lock");
  if (!i_out) return std::nullopt;
  // I - jQ: see core::to_complex -- the standard baseband orientation for
  // the paper's I = x*cos, Q = x*sin convention.
  return std::complex<double>(*i_out, -*q_out);
}

void FloatDdc::process_block(std::span<const double> in,
                             std::vector<std::complex<double>>& out) {
  mix_i_.clear();
  mix_q_.clear();
  mix_i_.reserve(in.size());
  mix_q_.reserve(in.size());
  for (double x : in) {
    const double c = std::cos(phase_);
    const double s = std::sin(phase_);
    phase_ += phase_step_;
    if (phase_ >= kTwoPi) phase_ -= kTwoPi;
    mix_i_.push_back(x * c);
    mix_q_.push_back(x * s);
  }
  samples_in_ += in.size();

  out_i_.clear();
  out_q_.clear();
  rails_[0].process_block(mix_i_, out_i_);
  rails_[1].process_block(mix_q_, out_q_);
  if (out_i_.size() != out_q_.size())
    throw SimulationError("FloatDdc: I/Q rails lost rate lock");
  for (std::size_t j = 0; j < out_i_.size(); ++j)
    out.push_back(std::complex<double>(out_i_[j], -out_q_[j]));
}

std::vector<std::complex<double>> FloatDdc::process(const std::vector<double>& in) {
  std::vector<std::complex<double>> out;
  out.reserve(in.size() / static_cast<std::size_t>(config_.total_decimation()) + 1);
  process_block(in, out);
  return out;
}

}  // namespace twiddc::core
