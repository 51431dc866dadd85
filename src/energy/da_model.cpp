#include "src/energy/da_model.hpp"

#include "src/core/pipeline.hpp"
#include "src/dsp/da_fir.hpp"

namespace twiddc::energy {

FirImplCost da_fir_cost(const std::string& stage_label, std::size_t taps,
                        int input_bits, const DaEnergyParams& params) {
  FirImplCost c;
  c.stage_label = stage_label;
  c.taps = taps;
  c.input_bits = input_bits > 0 ? input_bits : 0;

  c.multipliers = taps;
  c.mac_energy_per_output = static_cast<double>(taps) * params.multiply_energy;

  const dsp::DaFirEngine::Cost da =
      dsp::DaFirEngine::cost(taps, input_bits > 0 ? input_bits : 0);
  c.da_eligible = da.eligible;
  c.lut4_tables = da.slices;
  c.table_bits = da.table_entries * 64;  // int64 partial sums
  c.lookups_per_output = da.lookups_per_output;
  if (da.eligible) {
    c.da_energy_per_output =
        static_cast<double>(da.lookups_per_output) * params.lookup_energy;
    c.da_wins = c.da_energy_per_output < c.mac_energy_per_output;
  }
  return c;
}

std::vector<FirImplCost> plan_fir_costs(const core::ChainPlan& plan,
                                        const DaEnergyParams& params) {
  std::vector<FirImplCost> costs;
  // The mixer bus width flows through, narrowing stages pin it, and
  // non-narrowing non-trivial stages widen by an amount the plan does not
  // bound, so the width becomes unknown (0) and downstream FIR stages are
  // DA-ineligible.
  int width = plan.front_end.mixer_out_bits;
  for (const core::StageSpec& st : plan.stages) {
    if (st.kind == core::StageSpec::Kind::kFirDecimator ||
        st.kind == core::StageSpec::Kind::kPolyphaseFir)
      costs.push_back(da_fir_cost(st.label, st.taps.size(), width, params));
    if (st.narrow_bits != 0)
      width = st.narrow_bits;
    else if (st.kind != core::StageSpec::Kind::kPassthrough)
      width = 0;
  }
  return costs;
}

}  // namespace twiddc::energy
