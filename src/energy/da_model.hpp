// twiddc::energy -- the multiplier-vs-LUT trade of FIR stages in hardware.
//
// A MAC FIR spends K hardware multipliers (or K multiply ops per output on a
// sequential datapath); a distributed-arithmetic FIR spends zero multipliers
// and instead ceil(K/4) LUT partial-sum tables walked W times per output
// (W = input width).  On FPGA fabric that converts scarce DSP blocks into
// abundant LUTs; on an ASIC it converts multiplier area into ROM bits.  This
// model quantifies both realisations per FIR stage of a plan so the
// scenario layer can report what a DA datapath buys (or costs) a given
// deployment.  The operation counts come from dsp::DaFirEngine::cost, and
// dsp::DaFirEngine is the bit-exact model of the DA datapath being priced.
// The host executors always run the MAC dot.
#pragma once

#include <string>
#include <vector>

namespace twiddc::core {
struct ChainPlan;
}  // namespace twiddc::core

namespace twiddc::energy {

/// Relative energy weights of the primitive ops (defaults are
/// FPGA-flavoured: one 18x18 multiply costs roughly an order of magnitude
/// more than a LUT4 read + add).  Units are arbitrary but shared, so only
/// the ratio matters.
struct DaEnergyParams {
  double multiply_energy = 10.0;  ///< one W x tap multiply-accumulate
  double lookup_energy = 1.0;     ///< one LUT4 read + partial-sum add
};

/// Both realisations of one FIR stage.
struct FirImplCost {
  std::string stage_label;
  std::size_t taps = 0;
  int input_bits = 0;  ///< 0 = unknown width (DA ineligible)

  // MAC realisation.
  std::size_t multipliers = 0;  ///< K multipliers (== MACs per output)
  double mac_energy_per_output = 0.0;

  // DA realisation.
  bool da_eligible = false;
  std::size_t lut4_tables = 0;        ///< ceil(K/4) partial-sum tables
  std::size_t table_bits = 0;         ///< total ROM bits (entries * 64)
  std::size_t lookups_per_output = 0; ///< W * ceil(K/4)
  double da_energy_per_output = 0.0;

  /// DA beats MAC under the given energy weights (false when ineligible).
  bool da_wins = false;
};

/// Cost of one FIR stage with `taps` coefficients fed `input_bits`-wide
/// samples (input_bits <= 0 marks the width unknown: DA ineligible).
FirImplCost da_fir_cost(const std::string& stage_label, std::size_t taps,
                        int input_bits, const DaEnergyParams& params = {});

/// One FirImplCost per FIR stage of `plan`, with each stage's input width
/// tracked through the conditioning chain from the mixer bus width: a
/// narrowing stage pins it, a passthrough preserves it, and any other stage
/// makes it unknown.  Non-FIR stages are skipped.  This is the hook the
/// FPGA/ASIC scenario reports use to attach the multiplier-vs-LUT trade to a
/// concrete topology.
std::vector<FirImplCost> plan_fir_costs(const core::ChainPlan& plan,
                                        const DaEnergyParams& params = {});

}  // namespace twiddc::energy
