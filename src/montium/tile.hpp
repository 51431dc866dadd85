// twiddc::montium -- the Montium Tile Processor model (paper section 6,
// Figures 6 and 7).
//
// A tile is five ALUs, each with two local memories and a small register
// file, fed by a crossbar and steered by a sequencer.  An ALU executes, per
// clock cycle, at most one multiplication plus a small number of
// add/subtract/logic operations (level 1 function units + the level 2
// multiplier/adder/butterfly of Figure 7).
//
// The model is *operation-accurate*: the DDC mapping issues micro-operations
// against Alu::issue(), which enforces the per-cycle resource envelope and
// books the cycle to a named algorithm part.  That bookkeeping is exactly
// what Table 6 and Figure 9 report.  Datapath width is a parameter: real
// silicon is 16-bit; the DDC mapping runs the CIC5 in a wide mode (48-bit)
// because the filter's bit growth cannot fit 16 bits -- see DESIGN.md and
// the ablation bench for what truncation would cost.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/fixed/qformat.hpp"

namespace twiddc::montium {

/// Per-cycle resource envelope of one ALU (Figure 7): four level-1 function
/// units, one level-2 multiplier, one level-2 adder (the butterfly counts as
/// using both).
struct AluLimits {
  int multiplies = 1;
  int addsubs = 2;   ///< one level-1 chain result + the level-2 adder
  int logicals = 4;  ///< level-1 function units
};

/// One ALU with its 4-slot register file.
class Alu {
 public:
  Alu(int index, int word_bits);

  /// Marks the start of a new clock cycle.
  void begin_cycle();

  /// Books `mults`/`addsubs`/`logicals` operations for algorithm part
  /// `part` in the current cycle.  Throws SimulationError if the Figure 7
  /// envelope is exceeded or the cycle already belongs to another part --
  /// an invalid schedule is a bug, not data.
  void issue(std::string_view part, int mults, int addsubs, int logicals = 0);

  // -- datapath helpers (wrap at word_bits, like hardware registers) -------
  [[nodiscard]] std::int64_t wrap(std::int64_t v) const {
    return fixed::wrap(v, word_bits_);
  }
  [[nodiscard]] std::int64_t reg(int slot) const;
  void set_reg(int slot, std::int64_t v);

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] int word_bits() const { return word_bits_; }
  /// Part label this ALU worked on in the current cycle ("" if idle).
  [[nodiscard]] const std::string& current_part() const;
  /// Cycles booked per part since construction.
  [[nodiscard]] std::map<std::string, std::uint64_t> busy_cycles() const;
  [[nodiscard]] std::uint64_t total_cycles() const { return total_cycles_; }

 private:
  static constexpr int kNoPart = -1;

  int index_;
  int word_bits_;
  AluLimits limits_;
  std::vector<std::int64_t> regs_;
  // The parts this ALU has worked on, interned on first booking (a schedule
  // uses a handful per ALU), and the cycles booked to each, by the same id.
  std::vector<std::string> parts_;
  std::vector<std::uint64_t> busy_;
  int current_ = kNoPart;  ///< id of the current cycle's part
  int used_mults_ = 0;
  int used_addsubs_ = 0;
  int used_logicals_ = 0;
  std::uint64_t total_cycles_ = 0;
};

/// One 512-word local memory (each ALU owns two, Figure 6).
class Memory {
 public:
  static constexpr int kWords = 512;

  Memory(std::string name, int word_bits);

  [[nodiscard]] std::int64_t read(int address) const;
  void write(int address, std::int64_t value);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }

 private:
  std::string name_;
  int word_bits_;
  std::vector<std::int64_t> words_;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

/// A row of the Figure 9 Gantt chart: what each ALU did in one cycle.
struct GanttRow {
  std::uint64_t cycle = 0;
  std::vector<std::string> alu_part;  // one entry per ALU, "" = idle
};

/// One row of Table 6.
struct UtilizationRow {
  std::string part;
  int alus = 0;              ///< distinct ALUs that ever worked on this part
  double busy_percent = 0.0; ///< average share of those ALUs' cycles
};

/// The tile: 5 ALUs + 10 memories + cycle/trace bookkeeping.
class Tile {
 public:
  static constexpr int kNumAlus = 5;
  static constexpr int kMemoriesPerAlu = 2;
  /// Measured power density of the Montium in 0.13 um (section 6.2.2).
  static constexpr double kMilliwattPerMhz = 0.6;
  static constexpr double kCoreAreaMm2 = 2.2;

  explicit Tile(int word_bits = 16);

  [[nodiscard]] Alu& alu(int idx) { return alus_.at(static_cast<std::size_t>(idx)); }
  [[nodiscard]] Memory& memory(int alu_idx, int which);

  /// Opens a new clock cycle (clears every ALU's issue slots).
  void begin_cycle();
  /// Closes the cycle: records the Gantt row and advances the counter.
  void end_cycle();

  /// Keeps the first `n` cycles for the Figure 9 trace (default 40).
  void set_trace_depth(std::size_t n) { trace_depth_ = n; }
  [[nodiscard]] const std::vector<GanttRow>& gantt() const { return gantt_; }

  [[nodiscard]] std::uint64_t cycle() const { return cycle_; }
  /// Table 6 aggregation over all ALUs.
  [[nodiscard]] std::vector<UtilizationRow> utilization() const;

  /// Power at the tile's clock (0.6 mW/MHz, section 6.2.2).
  [[nodiscard]] static double power_mw(double clock_hz) {
    return kMilliwattPerMhz * clock_hz / 1e6;
  }

 private:
  std::vector<Alu> alus_;
  std::vector<Memory> memories_;
  std::uint64_t cycle_ = 0;
  std::size_t trace_depth_ = 40;
  std::vector<GanttRow> gantt_;
};

}  // namespace twiddc::montium
