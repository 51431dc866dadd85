// Topology-sweeping conformance harness over the ArchitectureBackend
// registry.
//
// Randomized valid ChainPlans -- Figure-1-family rate plans, the GC4016's
// Figure 4 family, and fully arbitrary stage lists none of the paper's
// hardware realises -- are fed through EVERY registered backend.  A backend
// either lowers the plan (then its outputs must agree with the functional
// twin: bit-exactly when it declares bit_exact, within its quantisation
// bound otherwise) or rejects it with a typed LoweringError naming the
// first unmappable feature.  Silently assuming Figure 1 is impossible by
// construction: the harness never tells a backend which family a plan is
// from.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/asic/gc4016.hpp"
#include "src/backends/builtin.hpp"
#include "src/common/rng.hpp"
#include "src/core/analysis.hpp"
#include "src/core/backend.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/dsp/fir_design.hpp"
#include "src/dsp/signal.hpp"
#include "src/fixed/qformat.hpp"
#include "src/montium/ddc_mapping.hpp"
#include "tests/core/simd_tiers.hpp"

namespace twiddc {
namespace {

using core::ArchitectureBackend;
using core::ChainPlan;
using core::DdcConfig;
using core::IqSample;
using core::StageSpec;

std::vector<std::int64_t> stimulus(const ChainPlan& plan, std::size_t outputs,
                                   std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(plan.total_decimation()) * outputs;
  const double nco = plan.front_end.nco_freq_hz;
  const auto scene = dsp::make_scene(
      {{nco + plan.output_rate_hz() * 0.11, 0.45, 0.3},
       {nco + plan.input_rate_hz * 0.004, 0.3, 1.2}},
      plan.input_rate_hz, n);
  auto in = dsp::quantize_signal(scene, plan.front_end.input_bits);
  // Decorrelate trials without changing the band structure.
  Rng rng(seed);
  for (auto& x : in) x = std::clamp<std::int64_t>(x + rng.uniform_int(-2, 2),
                                                  -(1 << (plan.front_end.input_bits - 1)),
                                                  (1 << (plan.front_end.input_bits - 1)) - 1);
  return in;
}

/// The functional twin: the native fixed-point pipeline on the same plan.
std::vector<IqSample> twin_outputs(const ChainPlan& plan,
                                   const std::vector<std::int64_t>& in) {
  core::DdcPipeline twin(plan);
  return twin.process(in);
}

/// Runs one backend over `in` in two blocks (exercising streaming contracts)
/// and checks agreement with the twin per the backend's declared
/// capabilities.  Returns false when the backend rejected the plan.
bool run_and_check(ArchitectureBackend& backend, const ChainPlan& plan,
                   const std::vector<std::int64_t>& in,
                   const std::vector<IqSample>& twin) {
  try {
    backend.configure(plan);
  } catch (const core::LoweringError& e) {
    // A typed rejection must name the backend; the plan stays unconfigured.
    EXPECT_EQ(e.backend(), backend.name());
    EXPECT_FALSE(e.detail().empty());
    EXPECT_FALSE(backend.is_configured());
    return false;
  }

  std::vector<IqSample> out;
  const std::size_t cut = in.size() / 2;
  backend.process_block(std::span(in).subspan(0, cut), out);
  backend.process_block(std::span(in).subspan(cut), out);

  const auto caps = backend.capabilities();
  if (caps.bit_exact) {
    // Cycle-level models (FPGA, Montium) may still be computing the final
    // output when the input ends; everything they did produce must match.
    EXPECT_GE(out.size() + 1, twin.size()) << backend.name();
    EXPECT_LE(out.size(), twin.size()) << backend.name();
    const std::size_t n = std::min(out.size(), twin.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i].i, twin[i].i) << backend.name() << " output " << i;
      if (!caps.in_phase_only)
        EXPECT_EQ(out[i].q, twin[i].q) << backend.name() << " output " << i;
    }
    return true;
  }

  // Quantisation-bounded agreement: compare normalised complex streams.
  const std::size_t n = std::min(out.size(), twin.size());
  if (n <= 48) {
    ADD_FAILURE() << backend.name() << ": only " << n
                  << " outputs -- too few for an SNR comparison";
    return true;
  }
  const double scale = core::plan_output_scale(plan);
  auto g = core::to_complex({twin.begin() + 16, twin.begin() + static_cast<long>(n)},
                            scale);
  auto o = core::to_complex({out.begin() + 16, out.begin() + static_cast<long>(n)},
                            backend.output_scale());
  const auto stats = core::compare_streams(g, o);
  EXPECT_GT(stats.snr_db, caps.min_snr_db) << backend.name();
  EXPECT_NEAR(stats.gain, 1.0, 0.08) << backend.name();
  return true;
}

DdcConfig random_figure1_config(Rng& rng) {
  DdcConfig cfg;
  cfg.input_rate_hz = 64.512e6;
  cfg.nco_freq_hz = rng.uniform(3.0e6, 18.0e6);
  cfg.cic2_stages = 2;
  cfg.cic5_stages = 5;
  // Ranges chosen inside every hardware family's structural limits (Montium
  // schedule feasibility, GPP ring size, FPGA register growth) so a
  // rejection in this sweep is a lowering bug, not an unlucky draw.
  cfg.cic2_decimation = static_cast<int>(rng.uniform_int(10, 24));
  cfg.cic5_decimation = static_cast<int>(rng.uniform_int(7, 21));
  cfg.fir_decimation = static_cast<int>(rng.uniform_int(5, 8));
  const int max_taps = std::min(125, 16 * cfg.fir_decimation);
  cfg.fir_taps = static_cast<int>(rng.uniform_int(33, max_taps));
  return cfg;
}

/// A random plan no paper architecture realises: 2..4 stages drawn from the
/// whole StageSpec vocabulary on a 16-bit rail.
ChainPlan random_arbitrary_plan(Rng& rng, int trial) {
  ChainPlan plan;
  plan.name = "arbitrary-" + std::to_string(trial);
  plan.input_rate_hz = 40.0e6;
  plan.front_end.nco_freq_hz = rng.uniform(2.0e6, 12.0e6);
  plan.front_end.input_bits = 12;
  plan.front_end.nco_amplitude_bits = 16;
  plan.front_end.mixer_out_bits = 16;

  const int n_stages = static_cast<int>(rng.uniform_int(2, 4));
  for (int s = 0; s < n_stages; ++s) {
    const auto pick = rng.uniform_int(0, 2);
    if (pick == 0) {
      const int stages = static_cast<int>(rng.uniform_int(1, 4));
      const int dec = static_cast<int>(rng.uniform_int(2, 9));
      StageSpec cic = StageSpec::cic("cic" + std::to_string(s), stages, dec, 16);
      cic.post_shift = fixed::cic_bit_growth(stages, dec);
      cic.narrow_bits = 16;
      cic.post_scale = std::ldexp(1.0, -cic.post_shift);
      plan.stages.push_back(std::move(cic));
    } else {
      const int dec = static_cast<int>(rng.uniform_int(2, 4));
      const int taps = static_cast<int>(rng.uniform_int(15, 47));
      auto ideal = dsp::design_lowpass(taps, 0.4 / dec, dsp::Window::kBlackman);
      const auto q = dsp::quantize_coefficients(ideal, 15);
      StageSpec fir =
          pick == 1 ? StageSpec::fir("fir" + std::to_string(s),
                                     {q.begin(), q.end()}, ideal, dec)
                    : StageSpec::polyphase_fir("pfir" + std::to_string(s),
                                               {q.begin(), q.end()}, ideal, dec);
      fir.post_shift = 15;
      fir.narrow_bits = 16;
      fir.post_scale = 1.0;
      plan.stages.push_back(std::move(fir));
    }
  }
  plan.validate();
  return plan;
}

class BackendConformance : public ::testing::Test {
 protected:
  void SetUp() override { backends::register_builtin(); }
};

constexpr const char* kBuiltinBackends[] = {
    backends::kNative, backends::kFixedDdc, backends::kFloatDdc,
    backends::kGc4016, backends::kFpga, backends::kGpp, backends::kMontium};

TEST_F(BackendConformance, RegistryExposesAllSevenExecutionPaths) {
  const auto names = core::BackendRegistry::instance().names();
  const std::set<std::string> have(names.begin(), names.end());
  for (const char* want : kBuiltinBackends) EXPECT_TRUE(have.count(want)) << want;
  EXPECT_THROW(core::BackendRegistry::instance().create("no-such-arch"),
               twiddc::ConfigError);
}

TEST_F(BackendConformance, RandomizedFigure1FamilyPlansRunOnEveryOwner) {
  // Each hardware backend lowers ITS OWN datapath's realisation of a random
  // rate plan; the functional backends run the same plans as-is.  Every
  // accepting backend must agree with the twin.
  Rng rng(0xf19u);
  const auto& registry = core::BackendRegistry::instance();
  for (int trial = 0; trial < 3; ++trial) {
    const DdcConfig cfg = random_figure1_config(rng);
    for (const char* owner : {backends::kGpp, backends::kFpga, backends::kMontium}) {
      auto owner_backend = registry.create(owner);
      const ChainPlan plan = owner_backend->plan_for(cfg);
      SCOPED_TRACE(std::string(owner) + " plan '" + plan.name + "' dec " +
                   std::to_string(plan.total_decimation()));
      const auto in = stimulus(plan, 6, 0x100u + static_cast<unsigned>(trial));
      const auto twin = twin_outputs(plan, in);
      ASSERT_GE(twin.size(), 5u);

      // The owner itself must accept its own lowering...
      EXPECT_TRUE(run_and_check(*owner_backend, plan, in, twin));
      // ...and the bit-exact arbitrary-topology backends run the identical
      // plan.  (float-ddc needs a long stream for an SNR verdict; it is
      // swept in the Figure-4 and arbitrary-topology tests below.)
      for (const char* universal : {backends::kNative, backends::kFixedDdc}) {
        auto b = registry.create(universal);
        EXPECT_TRUE(run_and_check(*b, plan, in, twin)) << universal;
      }
    }
  }
}

TEST_F(BackendConformance, NonFigure1TopologiesSweepAtLeastFourBackends) {
  // GC4016 Figure 4 plans are nothing like Figure 1 (CIC5 -> CFIR -> PFIR,
  // 14-bit input, Hogenauer pruning at large decimations) and must run on
  // the chip backend plus every arbitrary-topology backend: >= 4 backends
  // executing a non-Figure-1 topology, as the registry contract promises.
  Rng rng(0x6c4016u);
  for (int trial = 0; trial < 3; ++trial) {
    asic::Gc4016ChannelConfig ch;
    ch.nco_freq_hz = rng.uniform(2.0e6, 20.0e6);
    ch.cic_decimation = static_cast<int>(rng.uniform_int(8, 48));
    ch.output_bits = trial == 0 ? 12 : 16;
    const ChainPlan plan = asic::Gc4016Channel::figure4_plan(ch, 69.333e6, 14);
    SCOPED_TRACE("gc4016 plan, cic dec " + std::to_string(ch.cic_decimation));
    const auto in = stimulus(plan, 80, 0x200u + static_cast<unsigned>(trial));
    const auto twin = twin_outputs(plan, in);

    int accepted = 0;
    std::map<std::string, bool> verdicts;
    for (auto& backend : core::BackendRegistry::instance().create_all()) {
      const bool ok = run_and_check(*backend, plan, in, twin);
      verdicts[backend->name()] = ok;
      accepted += ok ? 1 : 0;
    }
    EXPECT_GE(accepted, 4);
    EXPECT_TRUE(verdicts[backends::kGc4016]);
    // The Figure-1-only architectures must have rejected, not guessed.
    EXPECT_FALSE(verdicts[backends::kGpp]);
    EXPECT_FALSE(verdicts[backends::kFpga]);
    EXPECT_FALSE(verdicts[backends::kMontium]);
  }
}

TEST_F(BackendConformance, ArbitraryTopologiesRunOnFunctionalBackendsOnly) {
  Rng rng(0xab5u);
  for (int trial = 0; trial < 4; ++trial) {
    const ChainPlan plan = random_arbitrary_plan(rng, trial);
    SCOPED_TRACE(plan.name + " dec " + std::to_string(plan.total_decimation()) +
                 " stages " + std::to_string(plan.stages.size()));
    const auto in = stimulus(plan, 80, 0x300u + static_cast<unsigned>(trial));
    const auto twin = twin_outputs(plan, in);

    int accepted = 0;
    for (auto& backend : core::BackendRegistry::instance().create_all()) {
      const bool ok = run_and_check(*backend, plan, in, twin);
      if (backend->capabilities().arbitrary_topology)
        EXPECT_TRUE(ok) << backend->name();
      accepted += ok ? 1 : 0;
    }
    EXPECT_GE(accepted, 3);
  }
}

TEST_F(BackendConformance, LoweringDiagnosticsNameTheUnmappableFeature) {
  backends::register_builtin();
  const auto& registry = core::BackendRegistry::instance();
  const auto cfg = DdcConfig::reference();
  const auto wide16 = ChainPlan::figure1(cfg, core::DatapathSpec::wide16());

  // Wrong datapath widths: the FPGA implements 12-bit busses.
  auto fpga = registry.create(backends::kFpga);
  try {
    fpga->configure(wide16);
    FAIL() << "fpga accepted a wide16 plan";
  } catch (const core::LoweringError& e) {
    EXPECT_EQ(e.backend(), backends::kFpga);
    EXPECT_NE(e.detail().find("fpga-12bit"), std::string::npos) << e.detail();
  }

  // Custom coefficients: hardware derives its own quantisation.
  auto retapped = wide16;
  retapped.stages.back().taps[7] += 1;
  auto gpp = registry.create(backends::kGpp);
  try {
    gpp->configure(retapped);
    FAIL() << "gpp accepted foreign coefficients";
  } catch (const core::LoweringError& e) {
    EXPECT_NE(e.detail().find("taps"), std::string::npos) << e.detail();
  }

  // Structural mismatch: a 2-stage plan is not the Figure 1 chain.
  auto two_stage = wide16;
  two_stage.stages.pop_back();
  auto montium = registry.create(backends::kMontium);
  EXPECT_THROW(montium->configure(two_stage), core::LoweringError);

  // Montium schedule feasibility: a tiny CIC2 window leaves no cycles for
  // the time-multiplexed ALU pair.
  auto squeezed_cfg = cfg;
  squeezed_cfg.cic2_decimation = 4;
  auto squeezed = ChainPlan::figure1(squeezed_cfg, montium::DdcMapping::spec());
  try {
    montium->configure(squeezed);
    FAIL() << "montium accepted an infeasible schedule";
  } catch (const core::LoweringError& e) {
    EXPECT_NE(e.detail().find("cycles"), std::string::npos) << e.detail();
  }

  // GC4016: the reference decimation 2688 = 4 * 672 fits, but Figure 1
  // structure does not.
  auto gc = registry.create(backends::kGc4016);
  EXPECT_THROW(gc->configure(wide16), core::LoweringError);
}

TEST_F(BackendConformance, OutOfRangeBlockIsRejectedBeforeAnyStateMoves) {
  // The process_block contract: one sample that does not fit the plan's
  // input width rejects the whole block -- SimulationError, nothing
  // appended, no state advanced -- however late in the block it sits.  The
  // range scan is vectorised per kernel tier, so every tier runs it.
  const auto& registry = core::BackendRegistry::instance();
  const auto cfg = DdcConfig::reference(10.0e6);
  for (const test::Tier& tier : test::kTiers) {
    for (const char* name : kBuiltinBackends) {
      SCOPED_TRACE(std::string(name) + " tier " + tier.name);
      test::ScopedTier guard(tier);
      auto backend = registry.create(name);
      const ChainPlan plan = backend->plan_for(cfg);
      backend->configure(plan);

      std::vector<IqSample> out;
      EXPECT_NO_THROW(backend->process_block({}, out));  // empty block passes
      EXPECT_TRUE(out.empty());

      // 30 output frames (80,640 samples): long enough to cross every
      // backend's internal tile or window before the bad sample.
      std::vector<std::int64_t> block = stimulus(plan, 30, 0x500u);
      const std::size_t bad_at = block.size() - 100;
      const std::int64_t good = block[bad_at];
      block[bad_at] = std::int64_t{1} << plan.front_end.input_bits;
      EXPECT_THROW(backend->process_block(block, out), SimulationError);
      EXPECT_TRUE(out.empty()) << out.size() << " outputs appended";

      // Nothing moved: the backend now runs a valid block like a fresh one.
      out.clear();
      block[bad_at] = good;
      backend->process_block(block, out);
      auto fresh = registry.create(name);
      fresh->configure(plan);
      std::vector<IqSample> expected;
      fresh->process_block(block, expected);
      const bool same =
          std::equal(out.begin(), out.end(), expected.begin(), expected.end(),
                     [](const IqSample& a, const IqSample& b) {
                       return a.i == b.i && a.q == b.q;
                     });
      EXPECT_TRUE(same) << out.size() << " outputs vs a fresh instance's "
                        << expected.size();
    }
  }
}

TEST_F(BackendConformance, MontiumBackendReconfiguresByConfigurationReload) {
  // The Montium's raison d'etre: load a new configuration blob and run a
  // different plan.  The contract is kFlush -- after the swap the backend
  // behaves exactly like a freshly configured mapping -- and kSplice is a
  // typed rejection (the tile reloads configurations; it does not patch a
  // running schedule).
  const auto& registry = core::BackendRegistry::instance();
  auto backend = registry.create(backends::kMontium);

  auto cfg_a = DdcConfig::reference(10.0e6);
  auto cfg_b = DdcConfig::reference(4.0e6);
  cfg_b.cic2_decimation = 12;
  cfg_b.cic5_decimation = 14;
  cfg_b.fir_taps = 97;
  const auto plan_a = backend->plan_for(cfg_a);
  const auto plan_b = backend->plan_for(cfg_b);

  backend->configure(plan_a);
  const auto in_a = stimulus(plan_a, 3, 0x400u);
  std::vector<IqSample> sink;
  backend->process_block(in_a, sink);
  EXPECT_FALSE(sink.empty());

  const auto profile_a = backend->power_profile();
  EXPECT_TRUE(profile_a.modeled);
  EXPECT_GT(profile_a.reconfig_bytes, 500.0);  // the ~1110-byte blob

  EXPECT_THROW(backend->swap_plan(plan_b, core::SwapMode::kSplice),
               core::LoweringError);

  backend->swap_plan(plan_b, core::SwapMode::kFlush);
  const auto in_b = stimulus(plan_b, 4, 0x401u);
  sink.clear();
  backend->process_block(in_b, sink);

  auto fresh = registry.create(backends::kMontium);
  fresh->configure(plan_b);
  std::vector<IqSample> expected;
  fresh->process_block(in_b, expected);
  ASSERT_EQ(sink.size(), expected.size());
  for (std::size_t i = 0; i < sink.size(); ++i) {
    EXPECT_EQ(sink[i].i, expected[i].i) << i;
    EXPECT_EQ(sink[i].q, expected[i].q) << i;
  }
}

}  // namespace
}  // namespace twiddc
