// twiddc::core -- multi-channel batch engine over the stage pipeline.
//
// A ChannelBank owns N independent DdcPipeline channels (GC4016-style: same
// antenna feed, per-channel NCO/decimation/topology) and processes them all
// against ONE shared input block.  Outputs stay planar (one vector per
// channel), so a channel's stream is contiguous and the block pass touches
// the shared input once per channel while it is hot in cache.
//
// The bank runs on the caller's thread, deterministically and without
// synchronisation.  The block is walked in cache-sized tiles, tile-outer and
// channel-inner, so per-channel scratch buffers stay hot instead of
// streaming the full block per channel.
//
// Cross-channel SIMD packing: channels whose first stage is a CIC with
// identical geometry are grouped four (AVX2) or eight (AVX-512) at a time,
// and the group's integrator cascades (channels x I/Q) run through
// dsp::CicDecimator::process_block_packed4/packed8 -- one register holding
// every lane's integrator state per cascade stage.  The recursive cascade
// is a loop-carried dependency chain, so it does not vectorise along time
// within one channel; across channels it packs perfectly.  (FusedChainExec
// runs unpruned power-of-two stages on registers of at most 32 bits in the
// non-recursive form, which does; the bank keeps the recursion until
// per-channel executors are measured against packing.)  The NCO and mixer
// stay per-lane (they already vectorise along time through the simd shim),
// and every stage after the CIC runs per lane via
// StageChain::process_block_from.  Packed execution is bit-exact with the
// per-channel path, falls back to it when the SIMD tier is absent or
// simd::set_enabled(false) is in force, and skips channels with
// observation taps installed (a split chain cannot feed them).
//
// The GC4016 quad-channel model (src/asic/gc4016.cpp) is a shim over this
// class; the throughput bench sweeps channel counts through it to track
// scaling.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/pipeline.hpp"

namespace twiddc::core {

class ChannelBank {
 public:
  /// Builds one pipeline per plan.  Throws ConfigError if any plan is
  /// invalid or the list is empty.
  explicit ChannelBank(const std::vector<ChainPlan>& plans);

  [[nodiscard]] std::size_t size() const { return channels_.size(); }
  [[nodiscard]] DdcPipeline& channel(std::size_t i) { return channels_.at(i); }
  [[nodiscard]] const DdcPipeline& channel(std::size_t i) const {
    return channels_.at(i);
  }

  /// Disabled channels are skipped by process_block (their state freezes).
  void set_enabled(std::size_t i, bool on) { enabled_.at(i) = on; }
  [[nodiscard]] bool enabled(std::size_t i) const { return enabled_.at(i); }

  /// Block hot path: runs every enabled channel over the shared input span.
  /// `out` is resized to size(); channel i's outputs are *appended* to
  /// out[i], so a caller can stream blocks into persistent planar buffers.
  /// Bit-exact with calling each channel's process_block serially, down to
  /// the all-or-nothing input check: a sample that does not fit an enabled
  /// channel's input width throws before any channel advances.
  void process_block(std::span<const std::int64_t> in,
                     std::vector<std::vector<IqSample>>& out);

  /// Convenience wrapper: fresh planar buffers per call.
  std::vector<std::vector<IqSample>> process(const std::vector<std::int64_t>& in);

  void reset();

  /// Disables cross-channel packing (every unit becomes a single channel);
  /// benches and tests use it to compare packed vs monolithic execution on
  /// one bank.  Bit-exact either way.
  void set_packing(bool on) { packing_ = on; }
  [[nodiscard]] bool packing() const { return packing_; }

 private:
  /// Scratch for one packed unit's tile: per-lane cos/sin, mixed rails, raw
  /// CIC outputs and tail-chain outputs.  Tile-sized, reused across tiles;
  /// lanes beyond unit.lanes stay empty.
  struct PackScratch {
    std::vector<std::int32_t> cs[8], sn[8];
    std::vector<std::int64_t> mix_i[8], mix_q[8];
    std::vector<std::int64_t> cic_i[8], cic_q[8];
    std::vector<std::int64_t> rail_i[8], rail_q[8];
  };
  /// One execution unit of a block pass: a single channel (lanes == 1, the
  /// per-channel path) or a packed group (lanes == 4 or 8, lockstep CIC
  /// lanes).
  struct Unit {
    std::size_t ch[8] = {};
    int lanes = 1;
  };

  /// Partitions the enabled channels into packed groups + singles (octets
  /// only when the runtime AVX-512 tier is up, then quads, then singles).
  [[nodiscard]] std::vector<Unit> make_units();
  /// True when `c` can join a packed quad (first stage is an unpruned CIC,
  /// no observation taps anywhere on the channel).
  [[nodiscard]] bool packable(std::size_t c);

  /// Advances the group through one tile; bit-exact with running each lane's
  /// DdcPipeline::process_block over the same tile.  process_block has
  /// already range-checked the tile.
  void run_packed_tile(const Unit& unit, std::span<const std::int64_t> tile,
                       std::vector<std::vector<IqSample>>& out);

  std::vector<DdcPipeline> channels_;
  std::vector<char> enabled_;  // vector<bool> has no per-element data()
  bool packing_ = true;
  PackScratch scratch_;  // run_packed_tile's tile buffers, reused per unit
};

}  // namespace twiddc::core
