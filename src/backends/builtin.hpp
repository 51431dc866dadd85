// twiddc::backends -- the built-in ArchitectureBackend set.
//
// One backend per execution path in the repo:
//
//   native-pipeline  core::FusedChainExec on the plan's entry in the
//                    process-wide CompiledPlanCache; runs any valid plan,
//                    supports kSplice reconfiguration.
//   fixed-ddc        the staged core::DdcPipeline (the functional twin)
//                    through the core::FixedDdc shim; any plan, kSplice via
//                    the pipeline.
//   float-ddc        double-precision rails built from the same plan;
//                    any plan, quantisation-bounded agreement.
//   asic-gc4016      the GC4016 quad-DDC chip model (one channel); only
//                    the Figure 4 family lowers.
//   fpga-rtl         the cycle-true FPGA design; only its 12-bit Figure-1
//                    family lowers.
//   gpp-arm          the ARM-like program; only the wide16 Figure-1 family
//                    lowers, in-phase rail only (as the paper's C code).
//   montium          the Montium tile mapping; only its wide16/7-bit-table
//                    Figure-1 family lowers, reconfigures by flushing (a
//                    configuration reload, the paper's 1110-byte blob).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "src/core/backend.hpp"

namespace twiddc::backends {

inline constexpr const char* kNative = "native-pipeline";
inline constexpr const char* kFixedDdc = "fixed-ddc";
inline constexpr const char* kFloatDdc = "float-ddc";
inline constexpr const char* kGc4016 = "asic-gc4016";
inline constexpr const char* kFpga = "fpga-rtl";
inline constexpr const char* kGpp = "gpp-arm";
inline constexpr const char* kMontium = "montium";

/// Registers every built-in backend with core::BackendRegistry::instance().
/// Idempotent; call before iterating the registry.
void register_builtin();

/// Registers `name` as a decorated twin of the already-registered backend
/// `inner`: create(name) builds a fresh create(inner) instance and passes it
/// through `decorate`.  The seam the stream-layer fault injector uses to put
/// a misbehaving shim in front of ANY backend without the backend knowing;
/// also usable for tracing/metering wrappers.  Re-registration by name
/// follows the registry's last-wins rule.
void register_decorated(
    const std::string& name, const std::string& inner,
    std::function<std::unique_ptr<core::ArchitectureBackend>(
        std::unique_ptr<core::ArchitectureBackend>)>
        decorate);

}  // namespace twiddc::backends
