// perfbench -- workload definitions shared by the driver and the layer probes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "src/core/ddc_config.hpp"

namespace perfbench {

inline constexpr std::size_t kBlockSamples = 4096;
inline constexpr double kAdcRateHz = 64.512e6;  ///< the feed's sample rate (the paper's ADC)
inline constexpr int kFeedBits = 12;            ///< fits every backend's input
/// Cyclic feed length: odd, so block boundaries fall at a new feed offset on
/// every pass and no two blocks of a run carry the same samples.
inline constexpr std::size_t kFeedLength = (std::size_t{1} << 20) - 3;

struct SessionSpec {
  std::string backend;  ///< registered (undecorated) backend name
  core::ChainPlan plan;
};

struct Workload {
  std::string name;
  std::uint64_t warmup_blocks = 0;
  core::DdcConfig config;  ///< the workload's reference rate plan
  std::vector<SessionSpec> sessions;
  std::size_t retuned = 0;  ///< the session the client retunes
};

[[nodiscard]] bool known_workload(const std::string& name);
/// Builds the named workload's plans from `seed`: the "build plans" part of
/// set-up.
Workload build_workload(const std::string& name, std::uint64_t seed);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The single-threaded per-layer probes (dsp kernels, core executors and
/// stages, the plan cache, every backend inline, and the workload's own
/// sessions back to back on one thread), timed around calls into each
/// layer's public functions.  Also prints the host stage shares beside the
/// simulated ARM profile of Table 3.
std::vector<Metric> layer_metrics(const Workload& workload, const Feed& feed,
                                  std::uint64_t seed);

}  // namespace perfbench
