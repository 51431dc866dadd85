// twiddc::gpp -- the DDC written in the ARM-like ISA (paper section 4.2).
//
// Like the paper's C code, the program computes only the in-phase rail
// ("for simplicity reasons, the code only performs the in-phase
// transformation, so the result has to be doubled for the whole DDC") and
// fetches the cosine values from a look-up table.  The arithmetic follows
// core::DatapathSpec::wide16() exactly -- 16-bit signal words in 32-bit
// registers, 64-bit CIC5/FIR accumulation via ADDS/ADC and SMLAL -- so the
// program's outputs are bit-identical to FixedDdc(wide16)'s I rail, which
// the test suite verifies.
//
// Profiling regions mirror the rows of Table 3: NCO (including the mixing
// multiply, as the NCO's output application), CIC2-integrating,
// CIC2-cascading, CIC5-integrating, CIC5-cascading, FIR125-poly-phase,
// FIR125-summation, plus an explicit loop-control row the paper folds into
// its parts.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/core/ddc_config.hpp"
#include "src/core/pipeline.hpp"
#include "src/gpp/cpu.hpp"

namespace twiddc::gpp {

/// Result of running the DDC program over a block of input samples.
struct DdcRunResult {
  std::vector<std::int32_t> outputs;  ///< in-phase outputs (24 kHz rate)
  RunStats stats;

  /// Cycles consumed per input sample (the quantity the paper scales up).
  [[nodiscard]] double cycles_per_input(std::size_t inputs) const {
    return inputs == 0 ? 0.0
                       : static_cast<double>(stats.cycles) / static_cast<double>(inputs);
  }
  /// Clock (MHz) needed to sustain the full DDC (I and Q) in real time at
  /// `input_rate_hz`, doubling the in-phase figure as the paper does.
  [[nodiscard]] double required_clock_mhz(std::size_t inputs, double input_rate_hz) const {
    return 2.0 * cycles_per_input(inputs) * input_rate_hz / 1e6;
  }
  /// Power at the ARM922T's 0.25 mW/MHz (core + caches).
  [[nodiscard]] double power_mw(std::size_t inputs, double input_rate_hz) const {
    return 0.25 * required_clock_mhz(inputs, input_rate_hz);
  }
};

/// Builds and runs the in-phase DDC program.
class DdcProgram {
 public:
  /// ARM922T datasheet constant used by the paper.
  static constexpr double kMilliwattPerMhz = 0.25;
  /// The ARM946E-class core draws more per MHz (section 4.2.2: the DSP
  /// extension "resulted in an even higher power consumption").
  static constexpr double kMilliwattPerMhzArm9e = 0.32;

  explicit DdcProgram(const core::DdcConfig& config);

  /// Builds the program from an arbitrary ChainPlan via lower_plan().
  explicit DdcProgram(const core::ChainPlan& plan);

  /// Plan -> program lowering: accepts exactly the Figure-1 family realised
  /// with the wide16 datapath the kernel's arithmetic implements, within
  /// the kernel's structural limits (the CIC2+CIC5 chain it is written for,
  /// <= 128 FIR taps for the sample ring, 32-bit-shifter gain ranges).
  /// Throws core::LoweringError naming the first unmappable feature.
  static core::DdcConfig lower_plan(const core::ChainPlan& plan);

  /// Runs the program over `input` (values must fit 12 bits).  The input
  /// length should be a multiple of the total decimation for aligned output.
  DdcRunResult run(const std::vector<std::int64_t>& input) const {
    return run(input, CycleModel::arm9tdmi());
  }
  /// Same, with a specific core cycle model (e.g. CycleModel::arm9e()).
  DdcRunResult run(const std::vector<std::int64_t>& input,
                   const CycleModel& cycles) const;

  /// The assembled program (for inspection / instruction counting).
  [[nodiscard]] const Assembler::Program& program() const { return program_; }

 private:
  friend class DdcStream;

  core::DdcConfig config_;
  Assembler::Program program_;
  std::vector<std::int32_t> cos_table_;
  std::uint32_t tuning_word_ = 0;
  std::vector<std::int32_t> fir_coeffs_;
};

/// Bounded-history incremental runner for the DDC program: one persistent
/// Cpu whose registers (NCO phase, decimation counters), CIC/FIR state
/// memory and sample ring survive across process_block() calls, so a
/// stream of N blocks costs O(N) -- unlike run(), a batch kernel that must
/// re-execute from reset and is therefore quadratic when re-fed a growing
/// history.  This is what lets the gpp-arm backend serve long streams.
///
/// Bit-exactness: each block re-enters the program at its main loop with
/// the live register file, which executes exactly the instruction sequence
/// a single batch run over the concatenated input would -- so streamed
/// outputs are bit-identical to one run() over the whole feed (the test
/// suite pins this).  Blocks of any size are accepted; larger ones are fed
/// through the fixed input window in chunks.
class DdcStream {
 public:
  /// `program` is referenced, not copied (the Cpu makes the one image copy
  /// it needs); it must outlive this stream.
  explicit DdcStream(const DdcProgram& program);

  /// Runs the next block of the stream and appends the in-phase outputs.
  /// Input values must fit 12 bits (as run()).
  void process_block(std::span<const std::int64_t> in,
                     std::vector<std::int32_t>& out);

  /// Restores power-on state (fresh history, phase 0).
  void reset();

  /// Instructions simulated since construction/reset.
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }

 private:
  void boot();

  const DdcProgram* program_;  ///< non-owning; tables live in the program
  std::size_t chunk_samples_ = 0;  ///< input-window capacity per entry
  std::vector<std::int32_t> window_;  ///< widened-input scratch (reused)
  std::optional<Cpu> cpu_;
  std::uint64_t instructions_ = 0;
};

}  // namespace twiddc::gpp
