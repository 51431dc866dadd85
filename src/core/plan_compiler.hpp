// twiddc::core -- the plan-compilation layer.
//
// The paper's observation is that thousands of users run a handful of
// standard configurations; this layer applies the precompute-once philosophy
// at the plan level.  A ChainPlan is *lowered once* into an immutable
// CompiledPlan:
//
//   * canonicalisation -- every datapath-relevant field (widths, roundings,
//     decimations, coefficients, the NCO tuning word) is serialised into a
//     canonical key, so two plans that execute identically share one
//     compiled artifact regardless of their names or float-rail metadata;
//   * dedup -- quantised coefficient tables (stored forward + reversed for
//     the SIMD dot kernel) and quarter-wave NCO LUTs live in a process-wide
//     CoeffPool behind shared_ptr<const ...>: N sessions on the same config
//     hold one copy, and the storage is immutable so sharing needs no locks
//     after lookup;
//   * fusion -- FusedChainExec executes a whole chain in L1-sized tiles:
//     the NCO/mixer/first-stage sweep never materialises full-rate
//     cos/sin/mix buffers beyond one tile, and every stage's output
//     conditioning (shift/narrow/round) is applied as the stage's outputs
//     are produced instead of in a separate sweep.  The staged DdcPipeline
//     walks ~5 full-rate buffers per block; the fused path reads the input
//     once and touches everything else while it is cache-hot.
//
// CompiledPlanCache is the process-wide memo: backends' configure() and the
// stream engine resolve plans through it, so 64 identical sessions compile
// exactly one CompiledPlan (63 hits).  Entries are shared_ptr, so eviction
// never invalidates a running session -- the artifact dies with its last
// holder.
//
// Bit-exactness: FusedChainExec computes what the staged path computes, and
// tiling is bit-exact because every stage is streaming-composable.  It
// reuses the staged arithmetic (simd::lut_sincos_block, dsp::CicDecimator,
// the flat-window FIR dot over simd::dot_i64, fixed::shift_right/narrow)
// except where CompiledPlan picks another realisation of the same integers:
// an unpruned power-of-two CIC whose register fits 32 bits runs in
// Hogenauer's non-recursive form (dsp::NonRecursiveCic, exact mod
// 2^register_bits), and when stage 0 takes that form and the mixer product
// fits 31 bits the mixer writes an int32 tile.  Those two are plain loops the compiler vectorises, so the
// simd kill switch does not reach them; it still forces every intrinsic
// kernel onto its scalar twin.  Tests diff FusedChainExec against
// DdcPipeline in both kill-switch states and against the seed goldens.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/pipeline.hpp"
#include "src/dsp/cic.hpp"

namespace twiddc::core {

// -------------------------------------------------------------- shared data

/// One deduplicated coefficient set: forward taps (splice/retap source),
/// reversed taps (the contiguous-window dot kernel's operand order) and the
/// precomputed fits-int32 flag that gates the single-instruction multiply.
/// Immutable after construction; shared across every CompiledPlan (and every
/// session) using the same quantised coefficients.
struct TapSet {
  std::vector<std::int64_t> forward;
  std::vector<std::int64_t> reversed;
  bool fits_i32 = false;

  explicit TapSet(const std::vector<std::int64_t>& taps);
};

/// Process-wide dedup pool for coefficient tables and quarter-wave NCO LUTs.
/// Entries are held weakly: the pool never keeps an artifact alive on its
/// own, it only guarantees that concurrent holders share one copy.
class CoeffPool {
 public:
  static CoeffPool& instance();

  std::shared_ptr<const TapSet> taps(const std::vector<std::int64_t>& taps);
  std::shared_ptr<const std::vector<std::int32_t>> sine_table(int table_bits,
                                                              int amplitude_bits);

  struct Stats {
    std::uint64_t tap_requests = 0;
    std::uint64_t tap_hits = 0;
    std::uint64_t table_requests = 0;
    std::uint64_t table_hits = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  CoeffPool() = default;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::weak_ptr<const TapSet>> taps_;
  std::unordered_map<std::uint64_t, std::weak_ptr<const std::vector<std::int32_t>>>
      tables_;
  Stats stats_;
};

// ----------------------------------------------------------------- keys

/// Canonical form of a plan's fixed-point datapath: every field that affects
/// the produced samples (front-end widths/mode/rounding, the NCO *tuning
/// word*, stage kinds/geometry/coefficients/conditioning, the input rate).
/// Excludes presentation-only fields (name) and float-rail metadata
/// (taps_float, post_scale).  Two plans with equal canonical keys execute
/// identically and may share one CompiledPlan.
std::string canonical_plan_key(const ChainPlan& plan);

/// Structural form: the canonical key minus everything a SwapMode::kSplice
/// may change (NCO frequency, coefficient values, output conditioning).
/// Two plans with equal structural keys are splice-compatible.
std::string structural_plan_key(const ChainPlan& plan);

// ------------------------------------------------------------- CompiledPlan

/// An immutable lowered plan: the validated ChainPlan, its canonical and
/// structural keys, the shared NCO LUT, one shared TapSet per FIR stage, and
/// each stage's form.
/// Construction validates (throws ConfigError exactly where DdcPipeline
/// would).  Never mutated after construction -- sessions on different
/// threads execute from one instance without synchronisation.
class CompiledPlan {
 public:
  explicit CompiledPlan(const ChainPlan& plan);

  [[nodiscard]] const ChainPlan& plan() const { return plan_; }
  [[nodiscard]] const std::string& canonical_key() const { return canonical_key_; }
  [[nodiscard]] const std::string& structural_key() const { return structural_key_; }
  [[nodiscard]] std::uint32_t tuning_word() const { return tuning_word_; }
  /// Shared quarter-wave LUT (null in Taylor mode).
  [[nodiscard]] const std::shared_ptr<const std::vector<std::int32_t>>& sine_table()
      const {
    return sine_table_;
  }
  /// Per-stage shared coefficient sets (null for non-FIR stages).
  [[nodiscard]] const std::vector<std::shared_ptr<const TapSet>>& stage_taps() const {
    return stage_taps_;
  }
  /// True when FusedChainExec runs stage `s` as dsp::NonRecursiveCic (see
  /// NonRecursiveCic::accepts); every other CIC stage keeps
  /// dsp::CicDecimator.  Chosen from the plan's structural fields alone, so a
  /// kSplice never changes it.
  [[nodiscard]] bool non_recursive(std::size_t s) const { return non_recursive_[s]; }
  /// True when the fused mixer writes an int32 tile: its product fits 31
  /// bits (input_bits + nco_amplitude_bits - 1 <= 31) and stage 0 is
  /// non-recursive.
  [[nodiscard]] bool int32_mixer() const { return int32_mixer_; }
  [[nodiscard]] int total_decimation() const { return plan_.total_decimation(); }

 private:
  ChainPlan plan_;
  std::string canonical_key_;
  std::string structural_key_;
  std::uint32_t tuning_word_ = 0;
  std::shared_ptr<const std::vector<std::int32_t>> sine_table_;
  std::vector<std::shared_ptr<const TapSet>> stage_taps_;
  std::vector<bool> non_recursive_;
  bool int32_mixer_ = false;
};

// -------------------------------------------------------- CompiledPlanCache

/// Process-wide LRU memo from canonical key to CompiledPlan.  Thread-safe
/// (one mutex; compilation happens under it, so concurrent configure() calls
/// for the same plan still compile exactly once).  Eviction only drops the
/// cache's reference -- running sessions keep their artifact alive.
class CompiledPlanCache {
 public:
  static CompiledPlanCache& instance();

  /// Returns the cached artifact for the plan's canonical form, compiling
  /// and inserting on miss.  Throws ConfigError (from validation) without
  /// caching anything; the failed lookup still counts as a miss.
  std::shared_ptr<const CompiledPlan> get_or_compile(const ChainPlan& plan);

  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    double compile_seconds = 0.0;  ///< total time spent compiling misses
    std::size_t entries = 0;
    std::size_t capacity = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Maximum resident entries (clamped to >= 1); evicts LRU down to it.
  void set_capacity(std::size_t capacity);
  /// Drops every entry (running sessions are unaffected).  Counters keep
  /// accumulating; tests assert on deltas.
  void clear();

  static constexpr std::size_t kDefaultCapacity = 128;

 private:
  CompiledPlanCache() = default;

  mutable std::mutex mu_;
  /// MRU-first list of (key, artifact); the map indexes into it.
  std::list<std::pair<std::string, std::shared_ptr<const CompiledPlan>>> lru_;
  std::unordered_map<std::string, decltype(lru_)::iterator> index_;
  std::size_t capacity_ = kDefaultCapacity;
  Stats stats_;
};

// ------------------------------------------------------------ FusedChainExec

/// Per-session execution state over a shared CompiledPlan: the NCO phase,
/// two CIC kernels per CIC stage (I and Q rails; recursive or non-recursive
/// as CompiledPlan::non_recursive says), one flat FIR delay line per FIR stage per
/// rail.  process_block runs the whole chain tile by tile -- mixer+first-stage
/// fused in L1, FIR decimation fused with the output narrow -- bit-exact with
/// DdcPipeline::process_block on the same plan (pinned by tests across
/// randomized topologies, CIC geometries and both kill-switch states).
class FusedChainExec {
 public:
  explicit FusedChainExec(std::shared_ptr<const CompiledPlan> plan);

  /// All-or-nothing: the whole block is range-checked against the front
  /// end's input width before any state advances (SimulationError).
  void process_block(std::span<const std::int64_t> in, std::vector<IqSample>& out);
  void reset();

  /// True when `next` is splice-compatible with the running plan (equal
  /// structural keys -- the same contract DdcPipeline::swap_plan(kSplice)
  /// enforces stage by stage).
  [[nodiscard]] bool can_splice(const CompiledPlan& next) const;
  /// State-preserving switch to `next`: filter state and NCO phase survive;
  /// coefficients, conditioning and the tuning word are replaced.  Call
  /// can_splice first; throws ConfigError otherwise.
  void splice(std::shared_ptr<const CompiledPlan> next);

  [[nodiscard]] const CompiledPlan& compiled() const { return *plan_; }
  [[nodiscard]] const std::shared_ptr<const CompiledPlan>& compiled_ptr() const {
    return plan_;
  }

 private:
  struct Conditioning {
    int shift = 0;
    int bits = 0;
    fixed::Rounding rounding = fixed::Rounding::kTruncate;

    [[nodiscard]] std::int64_t apply(std::int64_t v) const {
      v = fixed::shift_right(v, shift, rounding);
      return bits == 0 ? v : fixed::narrow(v, bits, fixed::Overflow::kSaturate);
    }
  };
  /// Runtime state of one stage (both rails).
  struct StageState {
    StageSpec::Kind kind = StageSpec::Kind::kPassthrough;
    int decimation = 1;
    Conditioning req;
    // kCic: one kernel per rail, [0]=I, [1]=Q, in the stage's form; the
    // other vector stays empty (both are empty for other kinds).
    std::vector<dsp::CicDecimator> cic;
    std::vector<dsp::NonRecursiveCic> nr;
    // kFirDecimator / kPolyphaseFir: shared taps + flat delay line per rail.
    std::shared_ptr<const TapSet> taps;
    std::vector<std::int64_t> tail[2];  // last (taps-1) inputs, zero-seeded
    int fir_phase = 0;                  // inputs since last output, in [0, D)
  };

  void build_stages();
  /// Runs stage `s` over one rail's tile, appending conditioned outputs.
  void run_stage(StageState& st, int rail, std::span<const std::int64_t> in,
                 std::vector<std::int64_t>& out);
  /// run_stage's kCic case; an int32 input is the int32 mixer tile.
  template <typename In>
  void run_cic(StageState& st, std::size_t rail, std::span<const In> in,
               std::vector<std::int64_t>& out);

  std::shared_ptr<const CompiledPlan> plan_;
  std::uint32_t phase_ = 0;
  int mixer_shift_ = 0;
  bool mixer_narrow_ok_ = false;
  std::vector<StageState> stages_;
  // Tile scratch (tile-sized, L1-resident; never full-block).
  std::vector<std::int32_t> cos_tile_;
  std::vector<std::int32_t> sin_tile_;
  std::vector<std::int64_t> mix_tile_[2];
  std::vector<std::int32_t> mix32_tile_[2];  // when int32_mixer()
  std::vector<std::int64_t> stage_a_[2];
  std::vector<std::int64_t> stage_b_[2];
  std::vector<std::int64_t> window_;
};

}  // namespace twiddc::core
