// twiddc::dsp -- distributed-arithmetic (DA) FIR evaluation.
//
// DA replaces a FIR's K multipliers with bit-serial table lookups: the taps
// are split into 4-tap slices, each slice precomputes the 16 possible
// partial sums of its taps, and one output is formed by walking the input
// samples bit by bit -- per bit plane w, the slice tables are addressed by
// the samples' w-th bits and the looked-up partial sums accumulate with
// weight 2^w (the sign bit carries weight -2^W + 2^(W-1), handled exactly).
// Multiplier-free FIRs are the classic FPGA/ASIC trade: K multipliers become
// ceil(K/4) LUT tables plus an adder tree, at W clocks per output (direction
// from the serial DA literature, e.g. arXiv:1403.4554).
//
// In this simulator the engine is an exact software model of that datapath:
// dot() is bit-exact (mod 2^64) with the MAC dot product whenever every
// window sample fits the engine's input width (fits()).  That is what lets
// energy::plan_fir_costs price the LUT realisation of a FIR stage as
// computing the same outputs; no host executor runs it.  Tables depend only
// on the tap values, never on the input width.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace twiddc::dsp {

class DaFirEngine {
 public:
  static constexpr int kSliceTaps = 4;      ///< taps per LUT slice (LUT4)
  static constexpr int kTableEntries = 16;  ///< 2^kSliceTaps partial sums
  /// Widest input for which the cost model considers DA: past this the
  /// bit-serial clock count erases the multiplier savings.
  static constexpr int kMaxInputBits = 24;

  /// Precomputes the per-slice partial-sum tables for `rev_taps` (the
  /// reversed, kernel-order tap set the dot kernels consume).  Layout:
  /// slice c's 16 entries at [c*16, c*16+16); a final partial slice's
  /// missing taps contribute zero.
  static std::vector<std::int64_t> build_tables(
      const std::vector<std::int64_t>& rev_taps);

  /// `tables` must come from build_tables on a tap set of `ntaps` taps.
  /// `input_bits` in [1, 63]: the two's-complement width every dot() window
  /// sample must fit (callers range-check via fits()).
  DaFirEngine(std::shared_ptr<const std::vector<std::int64_t>> tables,
              std::size_t ntaps, int input_bits);

  /// One FIR output: sum_j rev_taps[j] * win[j] over ntaps() window samples,
  /// evaluated bit-serially through the slice tables.  Exact mod 2^64 --
  /// bit-exact with simd::dot_i64 over the same operands -- provided every
  /// sample fits input_bits().
  [[nodiscard]] std::int64_t dot(const std::int64_t* win) const;

  /// True when every sample in [lo, hi] fits input_bits() -- the range over
  /// which dot() equals the MAC dot.
  [[nodiscard]] bool fits(std::int64_t lo, std::int64_t hi) const;

  [[nodiscard]] std::size_t ntaps() const { return ntaps_; }
  [[nodiscard]] int input_bits() const { return input_bits_; }
  [[nodiscard]] std::size_t slices() const { return slices_; }
  [[nodiscard]] const std::shared_ptr<const std::vector<std::int64_t>>& tables()
      const {
    return tables_;
  }

  /// The DA-vs-MAC operation counts behind the energy layer's
  /// multiplier-vs-LUT report (energy::da_fir_cost).
  struct Cost {
    bool eligible = false;            ///< width in range, taps present
    std::size_t slices = 0;           ///< ceil(K / 4) LUT tables
    std::size_t table_entries = 0;    ///< 16 * slices int64 entries
    std::size_t lookups_per_output = 0;  ///< W * slices table reads
    std::size_t macs_per_output = 0;     ///< K multiplies (the MAC cost)
  };
  static Cost cost(std::size_t ntaps, int input_bits);

 private:
  std::shared_ptr<const std::vector<std::int64_t>> tables_;
  std::size_t ntaps_ = 0;
  std::size_t slices_ = 0;
  int input_bits_ = 0;
};

}  // namespace twiddc::dsp
