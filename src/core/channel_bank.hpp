// twiddc::core -- multi-channel batch engine over the plan compiler.
//
// A ChannelBank runs N independent channels (GC4016-style: same antenna
// feed, per-channel NCO/decimation/topology) against ONE shared input
// block.  Outputs stay planar (one vector per channel), so a channel's
// stream is contiguous.
//
// Each channel is one FusedChainExec on its plan's CompiledPlan, resolved
// through the process-wide CompiledPlanCache as the native-pipeline backend
// does, so channels on one configuration share one compiled artifact.  The
// bank runs on the caller's thread, deterministically and without
// synchronisation: every enabled channel in turn over the whole block.  The
// executor already walks the block in L1-sized tiles, and its non-recursive
// CIC form vectorises along time within one channel, so the bank adds no
// tiling or cross-channel packing of its own.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/core/plan_compiler.hpp"

namespace twiddc::core {

class ChannelBank {
 public:
  /// Compiles one executor per plan.  Throws ConfigError if any plan is
  /// invalid or the list is empty.
  explicit ChannelBank(const std::vector<ChainPlan>& plans);

  [[nodiscard]] std::size_t size() const { return channels_.size(); }

  /// Disabled channels are skipped by process_block (their state freezes).
  void set_enabled(std::size_t i, bool on) { enabled_.at(i) = on; }
  [[nodiscard]] bool enabled(std::size_t i) const { return enabled_.at(i); }

  /// Block hot path: runs every enabled channel over the shared input span.
  /// `out` is resized to size(); channel i's outputs are *appended* to
  /// out[i], so a caller can stream blocks into persistent planar buffers.
  /// Bit-exact with calling each channel's DdcPipeline::process_block
  /// serially, down to the all-or-nothing input check: a sample that does
  /// not fit an enabled channel's input width throws before any channel
  /// advances.
  void process_block(std::span<const std::int64_t> in,
                     std::vector<std::vector<IqSample>>& out);

  /// Convenience wrapper: fresh planar buffers per call.
  std::vector<std::vector<IqSample>> process(const std::vector<std::int64_t>& in);

  void reset();

 private:
  std::vector<FusedChainExec> channels_;
  std::vector<char> enabled_;  // vector<bool> has no per-element data()
};

}  // namespace twiddc::core
