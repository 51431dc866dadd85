// energy::da_model -- the multiplier-vs-LUT trade of FIR stages in hardware:
// the per-stage numbers must mirror dsp::DaFirEngine::cost, track stage
// input widths through the conditioning chain (narrows pin the width,
// anything else un-narrowed loses it), and flip with the energy weights.
#include "src/energy/da_model.hpp"

#include <gtest/gtest.h>

#include "src/asic/gc4016.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/core/pipeline.hpp"

namespace twiddc::energy {
namespace {

core::ChainPlan figure1_plan() {
  return core::ChainPlan::figure1(core::DdcConfig::reference(10.0e6),
                                  core::DatapathSpec::wide16());
}

TEST(DaModel, Figure1PolyphaseTailCosts) {
  const auto costs = plan_fir_costs(figure1_plan());
  ASSERT_EQ(costs.size(), 1u);  // one FIR stage: the 125-tap polyphase tail
  const FirImplCost& c = costs[0];
  EXPECT_EQ(c.taps, 125u);
  EXPECT_EQ(c.input_bits, 16);  // the CIC narrows pin the interstage bus
  EXPECT_EQ(c.multipliers, 125u);
  EXPECT_TRUE(c.da_eligible);
  EXPECT_EQ(c.lut4_tables, 32u);                     // ceil(125 / 4)
  EXPECT_EQ(c.table_bits, 32u * 16u * 64u);          // entries * int64 bits
  EXPECT_EQ(c.lookups_per_output, 16u * 32u);        // W * slices
  // Default FPGA-flavoured weights: 512 lookups at 1 vs 125 multiplies at
  // 10 -- the DA realisation wins on energy even though it would need four
  // times as many operations per output as the MAC.
  EXPECT_DOUBLE_EQ(c.mac_energy_per_output, 1250.0);
  EXPECT_DOUBLE_EQ(c.da_energy_per_output, 512.0);
  EXPECT_TRUE(c.da_wins);
}

TEST(DaModel, Gc4016Figure4CfirAndPfirCosts) {
  // The GC4016 channel (Figure 4): CIC5 -> 21-tap CFIR -> 63-tap PFIR, each
  // stage narrowing to the chip's 16-bit internal bus.
  asic::Gc4016ChannelConfig ch;
  ch.nco_freq_hz = 15.0e6;
  const auto costs =
      plan_fir_costs(asic::Gc4016Channel::figure4_plan(ch, 69.333e6, 14));
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_EQ(costs[0].stage_label, "cfir");
  EXPECT_EQ(costs[1].stage_label, "pfir");
  for (const FirImplCost& c : costs) {
    EXPECT_EQ(c.input_bits, 16) << c.stage_label;
    EXPECT_TRUE(c.da_eligible) << c.stage_label;
  }
  EXPECT_EQ(costs[0].multipliers, 21u);
  EXPECT_EQ(costs[1].multipliers, 63u);
  EXPECT_EQ(costs[0].lut4_tables, 6u);   // ceil(21 / 4)
  EXPECT_EQ(costs[1].lut4_tables, 16u);  // ceil(63 / 4)
  EXPECT_EQ(costs[0].lookups_per_output, 96u);   // 16 * 6
  EXPECT_EQ(costs[1].lookups_per_output, 256u);  // 16 * 16
}

TEST(DaModel, WeightsFlipTheDecision) {
  DaEnergyParams cheap_multiply;
  cheap_multiply.multiply_energy = 1.0;
  cheap_multiply.lookup_energy = 1.0;
  const FirImplCost c = da_fir_cost("tail", 125, 16, cheap_multiply);
  EXPECT_TRUE(c.da_eligible);
  EXPECT_FALSE(c.da_wins);  // 512 lookups > 125 equally-priced multiplies
}

TEST(DaModel, UnknownOrWideWidthIsIneligible) {
  const FirImplCost unknown = da_fir_cost("x", 125, 0);
  EXPECT_FALSE(unknown.da_eligible);
  EXPECT_FALSE(unknown.da_wins);
  EXPECT_DOUBLE_EQ(unknown.da_energy_per_output, 0.0);
  // MAC side still reported: the stage costs K multiplies regardless.
  EXPECT_EQ(unknown.multipliers, 125u);

  const FirImplCost wide = da_fir_cost("x", 125, 32);
  EXPECT_FALSE(wide.da_eligible);
}

TEST(DaModel, WidthTrackingLosesUnNarrowedStages) {
  // A second FIR stage after one that widens without narrowing must be
  // reported width-unknown (ineligible).
  auto plan = figure1_plan();
  auto& fir = plan.stages.back();
  const int saved_narrow = fir.narrow_bits;
  fir.narrow_bits = 0;  // tail no longer pins its output width
  core::StageSpec extra = fir;
  extra.label = "tail2";
  extra.narrow_bits = saved_narrow;
  plan.stages.push_back(extra);

  const auto costs = plan_fir_costs(plan);
  ASSERT_EQ(costs.size(), 2u);
  EXPECT_TRUE(costs[0].da_eligible);    // still fed the 16-bit CIC bus
  EXPECT_FALSE(costs[1].da_eligible);   // fed an unknown-width bus
  EXPECT_EQ(costs[1].input_bits, 0);
}

}  // namespace
}  // namespace twiddc::energy
