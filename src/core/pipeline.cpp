#include "src/core/pipeline.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/simd.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/dsp/cic.hpp"
#include "src/dsp/fir.hpp"
#include "src/dsp/fir_design.hpp"
#include "src/dsp/moving_average.hpp"

namespace twiddc::core {
namespace {

// ----------------------------------------------------- fixed rail conditioning

/// Fixed-point stage-output conditioning: shift, round, narrow (saturating).
struct Requantizer {
  int shift = 0;
  int bits = 0;  // 0 = no narrowing
  fixed::Rounding rounding = fixed::Rounding::kTruncate;

  [[nodiscard]] std::int64_t apply(std::int64_t v) const {
    v = fixed::shift_right(v, shift, rounding);
    return bits == 0 ? v : fixed::narrow(v, bits, fixed::Overflow::kSaturate);
  }
};

// -------------------------------------------------------------- fixed stages

class FixedPassthroughStage final : public Stage<std::int64_t> {
 public:
  explicit FixedPassthroughStage(const StageSpec& spec) : label_(spec.label) {}
  std::optional<std::int64_t> push(std::int64_t x) override { return x; }
  void process_block(std::span<const std::int64_t> in,
                     std::vector<std::int64_t>& out) override {
    out.insert(out.end(), in.begin(), in.end());
  }
  [[nodiscard]] bool can_splice(const StageSpec& spec) const override {
    return spec.kind == StageSpec::Kind::kPassthrough;
  }
  void reset() override {}
  [[nodiscard]] int decimation() const override { return 1; }
  [[nodiscard]] const std::string& label() const override { return label_; }

 private:
  std::string label_;
};

class FixedScaleStage final : public Stage<std::int64_t> {
 public:
  explicit FixedScaleStage(const StageSpec& spec)
      : label_(spec.label), req_{spec.post_shift, spec.narrow_bits, spec.rounding} {}
  std::optional<std::int64_t> push(std::int64_t x) override { return req_.apply(x); }
  void process_block(std::span<const std::int64_t> in,
                     std::vector<std::int64_t>& out) override {
    for (std::int64_t x : in) out.push_back(req_.apply(x));
  }
  [[nodiscard]] bool can_splice(const StageSpec& spec) const override {
    return spec.kind == StageSpec::Kind::kScale;
  }
  void splice(const StageSpec& spec) override {
    req_ = Requantizer{spec.post_shift, spec.narrow_bits, spec.rounding};
  }
  void reset() override {}
  [[nodiscard]] int decimation() const override { return 1; }
  [[nodiscard]] const std::string& label() const override { return label_; }

 private:
  std::string label_;
  Requantizer req_;
};

class FixedCicStage final : public Stage<std::int64_t> {
 public:
  explicit FixedCicStage(const StageSpec& spec)
      : label_(spec.label),
        cic_([&] {
          dsp::CicDecimator::Config c;
          c.stages = spec.cic_stages;
          c.decimation = spec.decimation;
          c.diff_delay = spec.diff_delay;
          c.input_bits = spec.input_bits;
          c.register_bits = spec.register_bits;
          c.prune_shifts = spec.prune_shifts;
          return dsp::CicDecimator(c);
        }()),
        req_{spec.post_shift, spec.narrow_bits, spec.rounding} {}

  std::optional<std::int64_t> push(std::int64_t x) override {
    auto y = cic_.push(x);
    if (!y) return std::nullopt;
    return req_.apply(*y);
  }
  void process_block(std::span<const std::int64_t> in,
                     std::vector<std::int64_t>& out) override {
    scratch_.clear();
    cic_.process_block(in, scratch_);
    for (std::int64_t v : scratch_) out.push_back(req_.apply(v));
  }
  [[nodiscard]] bool can_splice(const StageSpec& spec) const override {
    // The CIC structure (stage count, decimation, register sizing) is the
    // filter; only the output conditioning can change under a splice.
    const auto& c = cic_.config();
    return spec.kind == StageSpec::Kind::kCic && spec.cic_stages == c.stages &&
           spec.decimation == c.decimation && spec.diff_delay == c.diff_delay &&
           spec.input_bits == c.input_bits && spec.register_bits == c.register_bits &&
           spec.prune_shifts == c.prune_shifts;
  }
  void splice(const StageSpec& spec) override {
    req_ = Requantizer{spec.post_shift, spec.narrow_bits, spec.rounding};
  }
  void reset() override { cic_.reset(); }
  [[nodiscard]] int decimation() const override { return cic_.config().decimation; }
  [[nodiscard]] const std::string& label() const override { return label_; }
  [[nodiscard]] dsp::CicDecimator* cic_kernel() override { return &cic_; }

 private:
  std::string label_;
  dsp::CicDecimator cic_;
  Requantizer req_;
  std::vector<std::int64_t> scratch_;
};

template <typename Filter>
class FixedFirStage final : public Stage<std::int64_t> {
 public:
  FixedFirStage(const StageSpec& spec, Filter filter)
      : label_(spec.label),
        kind_(spec.kind),
        fir_(std::move(filter)),
        req_{spec.post_shift, spec.narrow_bits, spec.rounding} {}

  std::optional<std::int64_t> push(std::int64_t x) override {
    auto y = fir_.push(x);
    if (!y) return std::nullopt;
    return req_.apply(*y);
  }
  void process_block(std::span<const std::int64_t> in,
                     std::vector<std::int64_t>& out) override {
    scratch_.clear();
    fir_.process_block(in, scratch_);
    for (std::int64_t v : scratch_) out.push_back(req_.apply(v));
  }
  [[nodiscard]] bool can_splice(const StageSpec& spec) const override {
    // Coefficients and conditioning may change; structure (form, decimation,
    // tap count -- the delay-line geometry) may not.
    return spec.kind == kind_ && spec.decimation == fir_.decimation() &&
           spec.taps.size() == fir_.macs_per_output();
  }
  void splice(const StageSpec& spec) override {
    fir_.retap(spec.taps);
    req_ = Requantizer{spec.post_shift, spec.narrow_bits, spec.rounding};
  }
  void reset() override { fir_.reset(); }
  [[nodiscard]] int decimation() const override { return fir_.decimation(); }
  [[nodiscard]] const std::string& label() const override { return label_; }

 private:
  std::string label_;
  StageSpec::Kind kind_;
  Filter fir_;
  Requantizer req_;
  std::vector<std::int64_t> scratch_;
};

// -------------------------------------------------------------- float stages

class FloatPassthroughStage final : public Stage<double> {
 public:
  explicit FloatPassthroughStage(const StageSpec& spec) : label_(spec.label) {}
  std::optional<double> push(double x) override { return x; }
  void process_block(std::span<const double> in, std::vector<double>& out) override {
    out.insert(out.end(), in.begin(), in.end());
  }
  void reset() override {}
  [[nodiscard]] int decimation() const override { return 1; }
  [[nodiscard]] const std::string& label() const override { return label_; }

 private:
  std::string label_;
};

class FloatScaleStage final : public Stage<double> {
 public:
  explicit FloatScaleStage(const StageSpec& spec)
      : label_(spec.label), scale_(spec.post_scale) {}
  std::optional<double> push(double x) override { return x * scale_; }
  void process_block(std::span<const double> in, std::vector<double>& out) override {
    for (double x : in) out.push_back(x * scale_);
  }
  void reset() override {}
  [[nodiscard]] int decimation() const override { return 1; }
  [[nodiscard]] const std::string& label() const override { return label_; }

 private:
  std::string label_;
  double scale_;
};

/// Float twin of a CIC: moving-average cascade + gain normalisation.
class FloatCicStage final : public Stage<double> {
 public:
  explicit FloatCicStage(const StageSpec& spec)
      : label_(spec.label),
        ma_(spec.cic_stages, spec.decimation),
        scale_(spec.post_scale) {}

  std::optional<double> push(double x) override {
    auto y = ma_.push(x);
    if (!y) return std::nullopt;
    return *y * scale_;
  }
  void process_block(std::span<const double> in, std::vector<double>& out) override {
    scratch_.clear();
    ma_.process_block(in, scratch_);
    for (double v : scratch_) out.push_back(v * scale_);
  }
  void reset() override { ma_.reset(); }
  [[nodiscard]] int decimation() const override { return ma_.decimation(); }
  [[nodiscard]] const std::string& label() const override { return label_; }

 private:
  std::string label_;
  dsp::MovingAverageCascade<double> ma_;
  double scale_;
  std::vector<double> scratch_;
};

template <typename Filter>
class FloatFirStage final : public Stage<double> {
 public:
  FloatFirStage(const StageSpec& spec, Filter filter)
      : label_(spec.label), fir_(std::move(filter)), scale_(spec.post_scale) {}

  std::optional<double> push(double x) override {
    auto y = fir_.push(x);
    if (!y) return std::nullopt;
    return *y * scale_;
  }
  void process_block(std::span<const double> in, std::vector<double>& out) override {
    scratch_.clear();
    fir_.process_block(in, scratch_);
    for (double v : scratch_) out.push_back(v * scale_);
  }
  void reset() override { fir_.reset(); }
  [[nodiscard]] int decimation() const override { return fir_.decimation(); }
  [[nodiscard]] const std::string& label() const override { return label_; }

 private:
  std::string label_;
  Filter fir_;
  double scale_;
  std::vector<double> scratch_;
};

}  // namespace

// ------------------------------------------------------------------ StageSpec

StageSpec StageSpec::passthrough(std::string label) {
  StageSpec s;
  s.kind = Kind::kPassthrough;
  s.label = std::move(label);
  return s;
}

StageSpec StageSpec::scale(std::string label, int post_shift, int narrow_bits,
                           fixed::Rounding rounding) {
  StageSpec s;
  s.kind = Kind::kScale;
  s.label = std::move(label);
  s.post_shift = post_shift;
  s.narrow_bits = narrow_bits;
  s.rounding = rounding;
  s.post_scale = std::ldexp(1.0, -post_shift);
  return s;
}

StageSpec StageSpec::cic(std::string label, int stages, int decimation, int input_bits) {
  StageSpec s;
  s.kind = Kind::kCic;
  s.label = std::move(label);
  s.cic_stages = stages;
  s.decimation = decimation;
  s.input_bits = input_bits;
  return s;
}

StageSpec StageSpec::fir(std::string label, std::vector<std::int64_t> taps,
                         std::vector<double> taps_float, int decimation) {
  StageSpec s;
  s.kind = Kind::kFirDecimator;
  s.label = std::move(label);
  s.taps = std::move(taps);
  s.taps_float = std::move(taps_float);
  s.decimation = decimation;
  return s;
}

StageSpec StageSpec::polyphase_fir(std::string label, std::vector<std::int64_t> taps,
                                   std::vector<double> taps_float, int decimation) {
  StageSpec s = fir(std::move(label), std::move(taps), std::move(taps_float), decimation);
  s.kind = Kind::kPolyphaseFir;
  return s;
}

void StageSpec::validate() const {
  const std::string who = "StageSpec '" + label + "'";
  if (decimation < 1)
    throw ConfigError(who + ": decimation must be >= 1, got " +
                      std::to_string(decimation));
  if (post_shift < 0)
    throw ConfigError(who + ": post_shift must be >= 0, got " +
                      std::to_string(post_shift));
  if (narrow_bits < 0 || narrow_bits > 63)
    throw ConfigError(who + ": narrow_bits must be in [0,63], got " +
                      std::to_string(narrow_bits));
  switch (kind) {
    case Kind::kCic:
      if (cic_stages < 1 || cic_stages > 8)
        throw ConfigError(who + ": CIC stages must be in [1,8], got " +
                          std::to_string(cic_stages));
      if (!prune_shifts.empty() &&
          prune_shifts.size() != static_cast<std::size_t>(cic_stages))
        throw ConfigError(who + ": prune_shifts has " +
                          std::to_string(prune_shifts.size()) +
                          " entries but the CIC has " + std::to_string(cic_stages) +
                          " stages (must be empty or one per stage)");
      break;
    case Kind::kFirDecimator:
    case Kind::kPolyphaseFir:
      if (taps.empty() && taps_float.empty())
        throw ConfigError(who + ": FIR stage needs a non-empty tap vector");
      break;
    case Kind::kPassthrough:
    case Kind::kScale:
      if (decimation != 1)
        throw ConfigError(who + ": passthrough/scale stages cannot decimate");
      break;
  }
}

// ------------------------------------------------------------------ ChainPlan

int ChainPlan::total_decimation() const {
  int d = 1;
  for (const auto& s : stages) d *= s.decimation;
  return d;
}

void ChainPlan::validate() const {
  if (input_rate_hz <= 0.0)
    throw ConfigError("ChainPlan '" + name + "': input_rate_hz must be positive");
  if (stages.empty())
    throw ConfigError("ChainPlan '" + name + "': needs at least one stage");
  for (const auto& s : stages) s.validate();
  const FrontEndSpec& fe = front_end;
  if (fe.nco_freq_hz < 0.0 || fe.nco_freq_hz >= input_rate_hz / 2.0)
    throw ConfigError("ChainPlan '" + name +
                      "': NCO frequency out of [0, input_rate/2)");
  // The widths the int64 datapath can hold: range checks and narrowing shift
  // by the width, and the mixer's x * cos product must fit 63 bits.
  if (fe.input_bits < 1)
    throw ConfigError("ChainPlan '" + name + "': input_bits must be >= 1, got " +
                      std::to_string(fe.input_bits));
  if (fe.mixer_out_bits < 1)
    throw ConfigError("ChainPlan '" + name + "': mixer_out_bits must be >= 1, got " +
                      std::to_string(fe.mixer_out_bits));
  if (fe.nco_amplitude_bits < 2 || fe.nco_amplitude_bits > 24)
    throw ConfigError("ChainPlan '" + name +
                      "': nco_amplitude_bits must be in [2,24], got " +
                      std::to_string(fe.nco_amplitude_bits));
  if (fe.input_bits + fe.nco_amplitude_bits - 1 > 63)
    throw ConfigError("ChainPlan '" + name + "': a " + std::to_string(fe.input_bits) +
                      "-bit input times a " + std::to_string(fe.nco_amplitude_bits) +
                      "-bit NCO does not fit the 63-bit mixer product");
}

ChainPlan ChainPlan::figure1(const DdcConfig& config, const DatapathSpec& spec) {
  config.validate();
  spec.validate(config.fir_taps);

  ChainPlan plan;
  plan.name = "figure1:" + spec.name;
  plan.input_rate_hz = config.input_rate_hz;
  plan.front_end.nco_freq_hz = config.nco_freq_hz;
  plan.front_end.nco_amplitude_bits = spec.nco_amplitude_bits;
  plan.front_end.nco_table_bits = spec.nco_table_bits;
  plan.front_end.nco_mode = spec.nco_mode;
  plan.front_end.input_bits = spec.input_bits;
  plan.front_end.mixer_out_bits = spec.mixer_out_bits;
  plan.front_end.mixer_rounding = spec.rounding;

  // CIC stages: normalise the gain by the Hogenauer bit growth and narrow to
  // the inter-stage bus (saturating; a correctly sized CIC cannot exceed the
  // bound, the saturation guards future spec changes).
  StageSpec cic2 = StageSpec::cic("cic2", config.cic2_stages, config.cic2_decimation,
                                  spec.mixer_out_bits);
  cic2.post_shift = fixed::cic_bit_growth(config.cic2_stages, config.cic2_decimation);
  cic2.narrow_bits = spec.interstage_bits;
  cic2.rounding = spec.rounding;
  cic2.post_scale = std::ldexp(1.0, -cic2.post_shift);

  StageSpec cic5 = StageSpec::cic("cic5", config.cic5_stages, config.cic5_decimation,
                                  spec.interstage_bits);
  cic5.post_shift = fixed::cic_bit_growth(config.cic5_stages, config.cic5_decimation);
  cic5.narrow_bits = spec.interstage_bits;
  cic5.rounding = spec.rounding;
  cic5.post_scale = std::ldexp(1.0, -cic5.post_shift);

  // Coefficients: the reference 125-tap design scaled to the FIR stage's
  // actual rate plan (cutoff just below the output Nyquist).
  const double stage_rate = config.cic5_output_rate_hz();
  const double cutoff = 0.83 * (config.output_rate_hz() / 2.0) / stage_rate;
  auto ideal = dsp::design_lowpass(config.fir_taps, cutoff, dsp::Window::kBlackman);
  const auto quantised = dsp::quantize_coefficients(ideal, spec.fir_coeff_frac_bits);

  StageSpec fir = StageSpec::polyphase_fir(
      "fir", std::vector<std::int64_t>(quantised.begin(), quantised.end()),
      std::move(ideal), config.fir_decimation);
  // The FIR accumulator holds interstage+coeff_frac fractional bits; shift
  // back to the output format and saturate (the paper's "11 LSBs + sign,
  // with saturation").
  fir.post_shift = spec.fir_coeff_frac_bits + (spec.interstage_bits - spec.output_bits);
  if (fir.post_shift < 0)
    throw ConfigError("DatapathSpec '" + spec.name +
                      "': output_bits wider than interstage_bits is not supported");
  fir.narrow_bits = spec.output_bits;
  fir.rounding = spec.rounding;
  fir.post_scale = 1.0;  // the float rail's taps are already normalised

  plan.stages = {std::move(cic2), std::move(cic5), std::move(fir)};
  return plan;
}

ChainPlan ChainPlan::figure1_float(const DdcConfig& config) {
  config.validate();

  ChainPlan plan;
  plan.name = "figure1:float";
  plan.input_rate_hz = config.input_rate_hz;
  plan.front_end.nco_freq_hz = config.nco_freq_hz;

  StageSpec cic2 =
      StageSpec::cic("cic2", config.cic2_stages, config.cic2_decimation, 16);
  cic2.post_scale = std::ldexp(
      1.0, -fixed::cic_bit_growth(config.cic2_stages, config.cic2_decimation));

  StageSpec cic5 =
      StageSpec::cic("cic5", config.cic5_stages, config.cic5_decimation, 16);
  cic5.post_scale = std::ldexp(
      1.0, -fixed::cic_bit_growth(config.cic5_stages, config.cic5_decimation));

  const double stage_rate = config.cic5_output_rate_hz();
  const double cutoff = 0.83 * (config.output_rate_hz() / 2.0) / stage_rate;
  StageSpec fir = StageSpec::polyphase_fir(
      "fir", {}, dsp::design_lowpass(config.fir_taps, cutoff, dsp::Window::kBlackman),
      config.fir_decimation);

  plan.stages = {std::move(cic2), std::move(cic5), std::move(fir)};
  return plan;
}

// ----------------------------------------------------------------- factories

std::unique_ptr<Stage<std::int64_t>> make_fixed_stage(const StageSpec& spec) {
  spec.validate();
  switch (spec.kind) {
    case StageSpec::Kind::kPassthrough:
      return std::make_unique<FixedPassthroughStage>(spec);
    case StageSpec::Kind::kScale:
      return std::make_unique<FixedScaleStage>(spec);
    case StageSpec::Kind::kCic:
      return std::make_unique<FixedCicStage>(spec);
    case StageSpec::Kind::kFirDecimator:
      return std::make_unique<FixedFirStage<dsp::FirDecimator<std::int64_t>>>(
          spec, dsp::FirDecimator<std::int64_t>(spec.taps, spec.decimation));
    case StageSpec::Kind::kPolyphaseFir:
      return std::make_unique<FixedFirStage<dsp::PolyphaseFirDecimator<std::int64_t>>>(
          spec, dsp::PolyphaseFirDecimator<std::int64_t>(spec.taps, spec.decimation));
  }
  throw ConfigError("make_fixed_stage: unknown stage kind");
}

std::unique_ptr<Stage<double>> make_float_stage(const StageSpec& spec) {
  spec.validate();
  const std::vector<double> taps =
      spec.taps_float.empty() ? std::vector<double>(spec.taps.begin(), spec.taps.end())
                              : spec.taps_float;
  switch (spec.kind) {
    case StageSpec::Kind::kPassthrough:
      return std::make_unique<FloatPassthroughStage>(spec);
    case StageSpec::Kind::kScale:
      return std::make_unique<FloatScaleStage>(spec);
    case StageSpec::Kind::kCic:
      return std::make_unique<FloatCicStage>(spec);
    case StageSpec::Kind::kFirDecimator:
      return std::make_unique<FloatFirStage<dsp::FirDecimator<double>>>(
          spec, dsp::FirDecimator<double>(taps, spec.decimation));
    case StageSpec::Kind::kPolyphaseFir:
      return std::make_unique<FloatFirStage<dsp::PolyphaseFirDecimator<double>>>(
          spec, dsp::PolyphaseFirDecimator<double>(taps, spec.decimation));
  }
  throw ConfigError("make_float_stage: unknown stage kind");
}

StageChain<std::int64_t> make_fixed_rail(const ChainPlan& plan) {
  std::vector<std::unique_ptr<Stage<std::int64_t>>> stages;
  stages.reserve(plan.stages.size());
  for (const auto& s : plan.stages) stages.push_back(make_fixed_stage(s));
  return StageChain<std::int64_t>(std::move(stages));
}

StageChain<double> make_float_rail(const ChainPlan& plan) {
  std::vector<std::unique_ptr<Stage<double>>> stages;
  stages.reserve(plan.stages.size());
  for (const auto& s : plan.stages) stages.push_back(make_float_stage(s));
  return StageChain<double>(std::move(stages));
}

int plan_output_bits(const ChainPlan& plan) {
  for (auto it = plan.stages.rbegin(); it != plan.stages.rend(); ++it) {
    if (it->narrow_bits != 0) return it->narrow_bits;
  }
  return plan.front_end.mixer_out_bits;
}

double plan_output_scale(const ChainPlan& plan) {
  return 1.0 / static_cast<double>(std::int64_t{1} << (plan_output_bits(plan) - 1));
}

// ----------------------------------------------------------------- StageChain

template <typename T>
StageChain<T>::StageChain(std::vector<std::unique_ptr<Stage<T>>> stages)
    : stages_(std::move(stages)), taps_(stages_.size(), nullptr) {}

template <typename T>
std::optional<T> StageChain<T>::push(T x) {
  T v = x;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    auto y = stages_[i]->push(v);
    if (!y) return std::nullopt;
    v = *y;
    if (taps_[i]) taps_[i]->push_back(v);
  }
  return v;
}

template <typename T>
void StageChain<T>::process_block(std::span<const T> in, std::vector<T>& out) {
  if (stages_.empty()) {
    out.insert(out.end(), in.begin(), in.end());
    return;
  }
  std::span<const T> cur = in;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    std::vector<T>& buf = i % 2 == 0 ? scratch_a_ : scratch_b_;
    buf.clear();
    stages_[i]->process_block(cur, buf);
    if (taps_[i]) taps_[i]->insert(taps_[i]->end(), buf.begin(), buf.end());
    cur = buf;
  }
  out.insert(out.end(), cur.begin(), cur.end());
}

template <typename T>
void StageChain<T>::reset() {
  for (auto& s : stages_) s->reset();
}

template <typename T>
int StageChain<T>::total_decimation() const {
  int d = 1;
  for (const auto& s : stages_) d *= s->decimation();
  return d;
}

template <typename T>
void StageChain<T>::clear_taps() {
  taps_.assign(taps_.size(), nullptr);
}

template <typename T>
bool StageChain<T>::can_splice(const std::vector<StageSpec>& specs) const {
  if (specs.size() != stages_.size()) return false;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (!stages_[i]->can_splice(specs[i])) return false;
  }
  return true;
}

template <typename T>
void StageChain<T>::splice(const std::vector<StageSpec>& specs) {
  if (!can_splice(specs))
    throw ConfigError("StageChain::splice: stage list is structurally "
                      "incompatible with the running chain (use SwapMode::kFlush)");
  for (std::size_t i = 0; i < stages_.size(); ++i) stages_[i]->splice(specs[i]);
}

template class StageChain<std::int64_t>;
template class StageChain<double>;

// ---------------------------------------------------------------- DdcPipeline

DdcPipeline::DdcPipeline(const ChainPlan& plan)
    : plan_([&] {
        plan.validate();
        return plan;
      }()),
      nco_([&] {
        dsp::Nco::Config nc;
        nc.freq_hz = plan_.front_end.nco_freq_hz;
        nc.sample_rate_hz = plan_.input_rate_hz;
        nc.amplitude_bits = plan_.front_end.nco_amplitude_bits;
        nc.table_bits = plan_.front_end.nco_table_bits;
        nc.mode = plan_.front_end.nco_mode;
        return dsp::Nco(nc);
      }()),
      mixer_([&] {
        dsp::ComplexMixer::Config mc;
        mc.input_bits = plan_.front_end.input_bits;
        mc.nco_amplitude_bits = plan_.front_end.nco_amplitude_bits;
        mc.output_bits = plan_.front_end.mixer_out_bits;
        mc.rounding = plan_.front_end.mixer_rounding;
        return dsp::ComplexMixer(mc);
      }()) {
  rails_.push_back(make_fixed_rail(plan_));
  rails_.push_back(make_fixed_rail(plan_));
}

void DdcPipeline::reset() {
  nco_.reset();
  for (auto& rail : rails_) rail.reset();
  samples_in_ = 0;
  samples_out_ = 0;
}

void DdcPipeline::set_nco_frequency(double freq_hz) {
  if (freq_hz < 0.0 || freq_hz >= plan_.input_rate_hz / 2.0)
    throw ConfigError("set_nco_frequency: frequency out of range");
  plan_.front_end.nco_freq_hz = freq_hz;
  nco_.set_frequency(freq_hz);
}

void DdcPipeline::swap_plan(const ChainPlan& plan, SwapMode mode) {
  plan.validate();
  if (mode == SwapMode::kSplice) {
    // Structural compatibility: the front end's datapath may not change
    // (only the mixing frequency), and every stage must accept the new spec
    // with its state intact.  Check everything before touching anything so
    // a rejected splice leaves the old plan running untouched.
    const FrontEndSpec& a = plan_.front_end;
    const FrontEndSpec& b = plan.front_end;
    if (a.nco_amplitude_bits != b.nco_amplitude_bits ||
        a.nco_table_bits != b.nco_table_bits || a.nco_mode != b.nco_mode ||
        a.input_bits != b.input_bits || a.mixer_out_bits != b.mixer_out_bits ||
        a.mixer_rounding != b.mixer_rounding ||
        plan.input_rate_hz != plan_.input_rate_hz)
      throw ConfigError("DdcPipeline::swap_plan(kSplice): front-end datapath "
                        "differs between plans (only the NCO frequency may "
                        "change under a splice; use SwapMode::kFlush)");
    for (auto& rail : rails_) {
      if (!rail.can_splice(plan.stages))
        throw ConfigError("DdcPipeline::swap_plan(kSplice): plan '" + plan.name +
                          "' is structurally incompatible with running plan '" +
                          plan_.name + "' (use SwapMode::kFlush)");
    }
    for (auto& rail : rails_) rail.splice(plan.stages);
    plan_ = plan;
    nco_.set_frequency(plan_.front_end.nco_freq_hz);  // phase-continuous
    return;
  }

  // kFlush: reconfigure as-if freshly constructed.  Rails are rebuilt (so
  // stage observation taps vanish with their stages), the NCO/mixer are
  // rebuilt from the new front end, and the sample counters restart.
  std::vector<StageChain<std::int64_t>> rails;
  rails.push_back(make_fixed_rail(plan));
  rails.push_back(make_fixed_rail(plan));

  dsp::Nco::Config nc;
  nc.freq_hz = plan.front_end.nco_freq_hz;
  nc.sample_rate_hz = plan.input_rate_hz;
  nc.amplitude_bits = plan.front_end.nco_amplitude_bits;
  nc.table_bits = plan.front_end.nco_table_bits;
  nc.mode = plan.front_end.nco_mode;

  dsp::ComplexMixer::Config mc;
  mc.input_bits = plan.front_end.input_bits;
  mc.nco_amplitude_bits = plan.front_end.nco_amplitude_bits;
  mc.output_bits = plan.front_end.mixer_out_bits;
  mc.rounding = plan.front_end.mixer_rounding;
  dsp::ComplexMixer mixer(mc);  // may throw; construct before committing

  plan_ = plan;
  nco_ = dsp::Nco(nc);
  mixer_ = mixer;
  rails_ = std::move(rails);
  mixer_tap_ = nullptr;
  samples_in_ = 0;
  samples_out_ = 0;
}

void check_input_block(std::span<const std::int64_t> in, int input_bits,
                       const char* who) {
  if (in.empty()) return;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  simd::minmax_i64(in.data(), in.size(), lo, hi);
  if (fixed::fits_bits(lo, input_bits) && fixed::fits_bits(hi, input_bits)) return;
  const std::int64_t bad = fixed::fits_bits(lo, input_bits) ? hi : lo;
  throw SimulationError(std::string(who) + ": input " + std::to_string(bad) +
                        " does not fit " + std::to_string(input_bits) + " bits");
}

std::optional<IqSample> DdcPipeline::push(std::int64_t x) {
  if (!fixed::fits_bits(x, plan_.front_end.input_bits))
    throw SimulationError("DdcPipeline::push: input " + std::to_string(x) +
                          " does not fit " +
                          std::to_string(plan_.front_end.input_bits) + " bits");
  ++samples_in_;
  const dsp::SinCos sc = nco_.next();
  const dsp::Iq mixed = mixer_.mix(x, sc.cos, sc.sin);
  if (mixer_tap_) mixer_tap_->push_back(mixed.i);

  const auto i_out = rails_[0].push(mixed.i);
  const auto q_out = rails_[1].push(mixed.q);
  // The two rails are rate-locked: they decimate identically.
  if (i_out.has_value() != q_out.has_value())
    throw SimulationError("DdcPipeline: I/Q rails lost rate lock");
  if (!i_out) return std::nullopt;
  ++samples_out_;
  return IqSample{*i_out, *q_out};
}

void DdcPipeline::process_block(std::span<const std::int64_t> in,
                                std::vector<IqSample>& out) {
  // Validate the whole block up front: a mid-block throw would otherwise
  // leave the NCO advanced past the rails (all-or-nothing semantics).  One
  // min/max sweep replaces the per-sample branch.
  check_input_block(in, plan_.front_end.input_bits, "DdcPipeline::process_block");
  cos_.resize(in.size());
  sin_.resize(in.size());
  nco_.next_block(cos_, sin_);
  mix_i_.resize(in.size());
  mix_q_.resize(in.size());
  mixer_.mix_block(in, cos_, sin_, mix_i_, mix_q_);
  if (mixer_tap_) mixer_tap_->insert(mixer_tap_->end(), mix_i_.begin(), mix_i_.end());

  out_i_.clear();
  out_q_.clear();
  rails_[0].process_block(mix_i_, out_i_);
  rails_[1].process_block(mix_q_, out_q_);
  if (out_i_.size() != out_q_.size())
    throw SimulationError("DdcPipeline: I/Q rails lost rate lock");

  for (std::size_t j = 0; j < out_i_.size(); ++j)
    out.push_back(IqSample{out_i_[j], out_q_[j]});
  samples_in_ += in.size();
  samples_out_ += out_i_.size();
}

std::vector<IqSample> DdcPipeline::process(const std::vector<std::int64_t>& in) {
  std::vector<IqSample> out;
  out.reserve(in.size() / static_cast<std::size_t>(total_decimation()) + 1);
  process_block(in, out);
  return out;
}

}  // namespace twiddc::core
