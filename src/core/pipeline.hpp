// twiddc::core -- the composable stage-pipeline layer.
//
// The paper's observation is that one DDC dataflow (NCO/mixer -> CIC stages
// -> FIR) is realised by four very different architectures.  This layer makes
// the dataflow *data* instead of code:
//
//   StageSpec   -- a declarative description of one decimating stage (CIC,
//                  FIR, polyphase FIR, scale, passthrough) including its
//                  fixed-point output conditioning (shift/narrow/round) and
//                  its float-rail equivalent (a scale factor);
//   ChainPlan   -- an ordered list of StageSpecs plus the NCO/mixer front
//                  end; ChainPlan::figure1() derives the paper's reference
//                  topology from a DdcConfig + DatapathSpec, and arbitrary
//                  topologies (GC4016 Figure 4 CIC5->CFIR->PFIR, DRM/GSM
//                  plans) are built from the same vocabulary;
//   Stage<T>    -- the runtime interface: per-sample push() plus a
//                  block-based process_block() hot path that amortises the
//                  per-sample std::optional and virtual-dispatch overhead;
//   StageChain<T> -- an ordered chain of stages with per-stage observation
//                  taps (used for Figure 1 stage tracing);
//   DdcPipeline -- NCO + complex mixer feeding two rate-locked rails.
//
// FixedDdc, FloatDdc and the Gc4016 channel are thin configuration shims
// over this layer; they stay bit-exact with their pre-pipeline versions
// (pinned by tests/core/golden_fixed_ddc.inc).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/dsp/mixer.hpp"
#include "src/dsp/nco.hpp"
#include "src/fixed/qformat.hpp"

namespace twiddc::dsp {
class CicDecimator;
}

namespace twiddc::core {

/// One complex output sample (raw integers in the plan's output width).
struct IqSample {
  std::int64_t i = 0;
  std::int64_t q = 0;
  friend bool operator==(const IqSample&, const IqSample&) = default;
};

// ------------------------------------------------------------------ planning

/// Declarative description of one rail stage.  The fixed-point rail applies
/// `y = narrow(shift_right(raw, post_shift, rounding), narrow_bits)` to each
/// raw stage output; the float rail multiplies by `post_scale` instead.
struct StageSpec {
  enum class Kind { kPassthrough, kScale, kCic, kFirDecimator, kPolyphaseFir };

  Kind kind = Kind::kPassthrough;
  std::string label = "stage";
  int decimation = 1;

  // kCic only.
  int cic_stages = 1;
  int diff_delay = 1;
  int input_bits = 16;    ///< register sizing (Hogenauer width = input + growth)
  int register_bits = 0;  ///< 0 = automatic full Hogenauer width
  std::vector<int> prune_shifts;

  // kFirDecimator / kPolyphaseFir only.
  std::vector<std::int64_t> taps;  ///< quantised taps (fixed rail)
  std::vector<double> taps_float;  ///< ideal taps (float rail)

  // Output conditioning.
  int post_shift = 0;
  int narrow_bits = 0;  ///< 0 = keep the full accumulator width
  fixed::Rounding rounding = fixed::Rounding::kTruncate;
  double post_scale = 1.0;  ///< float-rail equivalent of post_shift

  static StageSpec passthrough(std::string label = "pass");
  static StageSpec scale(std::string label, int post_shift, int narrow_bits,
                         fixed::Rounding rounding = fixed::Rounding::kTruncate);
  static StageSpec cic(std::string label, int stages, int decimation, int input_bits);
  static StageSpec fir(std::string label, std::vector<std::int64_t> taps,
                       std::vector<double> taps_float, int decimation);
  static StageSpec polyphase_fir(std::string label, std::vector<std::int64_t> taps,
                                 std::vector<double> taps_float, int decimation);

  /// Throws ConfigError naming `label` when the spec is inconsistent (e.g.
  /// prune_shifts size != cic_stages, empty taps, negative shift).
  void validate() const;
};

/// The NCO + complex-mixer front end shared by both rails.
struct FrontEndSpec {
  double nco_freq_hz = 0.0;
  int nco_amplitude_bits = 16;
  int nco_table_bits = 10;
  dsp::Nco::Mode nco_mode = dsp::Nco::Mode::kLookupTable;
  int input_bits = 12;
  int mixer_out_bits = 16;
  fixed::Rounding mixer_rounding = fixed::Rounding::kTruncate;
};

struct DdcConfig;
struct DatapathSpec;

/// A complete DDC topology: front end + ordered rail stages.  Plans are
/// plain data -- build them from the named constructors, from
/// ChainPlan::figure1(), or field by field for custom topologies.
struct ChainPlan {
  std::string name = "custom";
  double input_rate_hz = 0.0;
  FrontEndSpec front_end;
  std::vector<StageSpec> stages;

  [[nodiscard]] int total_decimation() const;
  [[nodiscard]] double output_rate_hz() const {
    return input_rate_hz / total_decimation();
  }
  /// Throws ConfigError when the plan is inconsistent.
  void validate() const;

  /// The paper's Figure 1 topology (mixer -> CIC2 -> CIC5 -> polyphase FIR)
  /// for the given rate plan and datapath widths.  Designs and quantises the
  /// FIR coefficients exactly as the pre-pipeline FixedDdc did.
  static ChainPlan figure1(const DdcConfig& config, const DatapathSpec& spec);

  /// Float-rail-only view of the Figure 1 topology: ideal (unquantised) FIR
  /// taps and 2^-growth CIC scales, no fixed-point datapath constraints.
  /// Feed to make_float_rail; the fixed-only fields stay at defaults.
  static ChainPlan figure1_float(const DdcConfig& config);
};

// ------------------------------------------------------------------- runtime

/// Output-glitch contract of a runtime plan swap (see DESIGN.md).
///
/// kFlush -- always available.  The pipeline is reconfigured as-if freshly
/// constructed from the new plan: every filter state, decimation counter
/// and the NCO phase is discarded, and the sample counters restart.  The
/// glitch is a clean gap: no output mixes the two plans, and the first
/// outputs after the swap are the new chain's settling transient (its group
/// delay), exactly as a fresh pipeline would produce.
///
/// kSplice -- only for structurally compatible plans (same stage kinds,
/// decimations, CIC geometry and tap counts; only coefficients, output
/// conditioning and the NCO frequency may change).  All filter state is
/// kept, so the output stream continues at the same cadence with no gap;
/// the glitch is a transient where pre-swap history is convolved with the
/// new coefficients.  Once the new-plan samples have flushed the filter
/// histories, outputs are bit-exact with a chain that ran the new plan all
/// along.  Incompatible plans throw ConfigError and leave the old plan
/// running.
enum class SwapMode { kFlush, kSplice };

/// Runtime interface of one rail stage.
template <typename T>
class Stage {
 public:
  virtual ~Stage() = default;

  /// Pushes one sample; returns an output every decimation() inputs.
  virtual std::optional<T> push(T x) = 0;

  /// Block hot path: consumes all of `in`, appends produced outputs to
  /// `out`.  Must be bit-exact with a push() loop.  The default does exactly
  /// that; concrete stages override it with tighter loops.
  virtual void process_block(std::span<const T> in, std::vector<T>& out) {
    for (T x : in) {
      if (auto y = push(x)) out.push_back(*y);
    }
  }

  /// True when splice(spec) would succeed: `spec` describes the same stage
  /// structure (kind, decimation, filter geometry) and differs only in
  /// coefficients or output conditioning.
  [[nodiscard]] virtual bool can_splice(const StageSpec& spec) const {
    (void)spec;
    return false;
  }
  /// State-preserving reconfiguration (the SwapMode::kSplice leg).  Only
  /// called after can_splice(spec) returned true.
  virtual void splice(const StageSpec& spec) { (void)spec; }

  virtual void reset() = 0;
  [[nodiscard]] virtual int decimation() const = 0;
  [[nodiscard]] virtual const std::string& label() const = 0;

  /// The stage's CIC kernel when (and only when) the stage is a fixed-point
  /// CIC decimator, else nullptr.  perfbench's stage probe reads its config
  /// to time the kernel on its own.
  [[nodiscard]] virtual dsp::CicDecimator* cic_kernel() { return nullptr; }
};

/// Builds the fixed-point (int64) realisation of a stage spec.
std::unique_ptr<Stage<std::int64_t>> make_fixed_stage(const StageSpec& spec);
/// Builds the float realisation (CIC becomes a moving-average cascade,
/// conditioning becomes a multiply by post_scale, taps_float are used).
std::unique_ptr<Stage<double>> make_float_stage(const StageSpec& spec);

/// An ordered chain of stages of one rail, with optional per-stage
/// observation taps (stage i's outputs are appended to the registered sink).
template <typename T>
class StageChain {
 public:
  StageChain() = default;
  explicit StageChain(std::vector<std::unique_ptr<Stage<T>>> stages);

  std::optional<T> push(T x);
  /// Block hot path: runs the whole block stage by stage through ping-pong
  /// scratch buffers; appends the final stage's outputs to `out`.
  void process_block(std::span<const T> in, std::vector<T>& out);
  void reset();

  [[nodiscard]] std::size_t size() const { return stages_.size(); }
  [[nodiscard]] Stage<T>& stage(std::size_t i) { return *stages_.at(i); }
  [[nodiscard]] const Stage<T>& stage(std::size_t i) const { return *stages_.at(i); }
  [[nodiscard]] int total_decimation() const;

  /// Registers (or clears, with nullptr) the observation tap of stage `i`.
  void set_tap(std::size_t i, std::vector<T>* sink) { taps_.at(i) = sink; }
  void clear_taps();

  /// True when every stage can splice to the matching spec (same count,
  /// structurally compatible stage by stage).
  [[nodiscard]] bool can_splice(const std::vector<StageSpec>& specs) const;
  /// Applies a state-preserving reconfiguration; call can_splice first
  /// (all-or-nothing: nothing is modified when any stage is incompatible,
  /// and ConfigError is thrown).
  void splice(const std::vector<StageSpec>& specs);

 private:
  std::vector<std::unique_ptr<Stage<T>>> stages_;
  std::vector<std::vector<T>*> taps_;
  std::vector<T> scratch_a_;
  std::vector<T> scratch_b_;
};

extern template class StageChain<std::int64_t>;
extern template class StageChain<double>;

/// Builds one rail (a StageChain) from a plan's stage list.
StageChain<std::int64_t> make_fixed_rail(const ChainPlan& plan);
StageChain<double> make_float_rail(const ChainPlan& plan);

/// Output word width of a plan: the narrow_bits of the last narrowing
/// stage, falling back to the mixer bus width for plans that never narrow.
int plan_output_bits(const ChainPlan& plan);
/// Multiplies raw plan outputs into normalised doubles:
/// 1 / 2^(plan_output_bits - 1).
double plan_output_scale(const ChainPlan& plan);

/// Throws SimulationError naming `who` unless every sample of `in` fits a
/// signed `input_bits`-bit word; an empty block passes.  One min/max sweep.
/// Block entry points call it before any state moves, so a rejected block
/// leaves them untouched (see ArchitectureBackend::process_block).
void check_input_block(std::span<const std::int64_t> in, int input_bits,
                       const char* who);

/// The full fixed-point DDC: NCO + mixer front end feeding two rate-locked
/// rails built from a ChainPlan.
class DdcPipeline {
 public:
  explicit DdcPipeline(const ChainPlan& plan);

  /// Pushes one raw input sample (must fit front_end.input_bits; checked)
  /// and returns an output every total_decimation() inputs.
  std::optional<IqSample> push(std::int64_t x);

  /// Block hot path: mixes the whole block, then runs each rail block-wise.
  /// Bit-exact with a push() loop, ~2x+ faster on the Figure 1 chain.
  void process_block(std::span<const std::int64_t> in, std::vector<IqSample>& out);

  /// Convenience wrapper over process_block().
  std::vector<IqSample> process(const std::vector<std::int64_t>& in);

  void reset();

  /// Retunes the NCO without resetting phase.
  void set_nco_frequency(double freq_hz);

  /// Runtime reconfiguration onto a new plan; see SwapMode for the
  /// output-glitch contract of each mode.  Throws ConfigError (leaving the
  /// current plan running) when the new plan is invalid or, for kSplice,
  /// structurally incompatible.  Observation taps are cleared on kFlush
  /// (stage count may change) and kept on kSplice.
  void swap_plan(const ChainPlan& plan, SwapMode mode = SwapMode::kFlush);

  [[nodiscard]] const ChainPlan& plan() const { return plan_; }
  [[nodiscard]] int total_decimation() const { return plan_.total_decimation(); }
  [[nodiscard]] StageChain<std::int64_t>& rail(int r) {
    return rails_.at(static_cast<std::size_t>(r));
  }
  [[nodiscard]] const dsp::Nco& nco() const { return nco_; }
  [[nodiscard]] std::uint64_t samples_in() const { return samples_in_; }
  [[nodiscard]] std::uint64_t samples_out() const { return samples_out_; }

  /// Observation tap for the in-phase mixer output (nullptr disables).
  void set_mixer_tap(std::vector<std::int64_t>* sink) { mixer_tap_ = sink; }

  /// The front end's parts, for stage-by-stage probes that drive them
  /// directly (perfbench's per-layer timing).  Advancing the NCO through
  /// this reference moves the pipeline's phase without counting samples.
  [[nodiscard]] dsp::Nco& nco() { return nco_; }
  [[nodiscard]] const dsp::ComplexMixer& mixer() const { return mixer_; }

 private:
  ChainPlan plan_;
  dsp::Nco nco_;
  dsp::ComplexMixer mixer_;
  std::vector<StageChain<std::int64_t>> rails_;  // [0]=I, [1]=Q
  std::vector<std::int64_t>* mixer_tap_ = nullptr;
  std::vector<std::int32_t> cos_;
  std::vector<std::int32_t> sin_;
  std::vector<std::int64_t> mix_i_;
  std::vector<std::int64_t> mix_q_;
  std::vector<std::int64_t> out_i_;
  std::vector<std::int64_t> out_q_;
  std::uint64_t samples_in_ = 0;
  std::uint64_t samples_out_ = 0;
};

}  // namespace twiddc::core
