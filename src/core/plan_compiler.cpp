#include "src/core/plan_compiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <type_traits>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/simd.hpp"
#include "src/common/trace.hpp"
#include "src/dsp/mixer.hpp"
#include "src/dsp/nco.hpp"

namespace twiddc::core {
namespace {

// Fused tiles are sized so one tile's worth of every intermediate (cos/sin
// int32, two mixed rails, the rail ping-pong buffers) stays L1/L2-resident:
// ~40 KB total at 1024 samples.  The staged path materialises the same
// intermediates at full block size (a megabyte at the bench's 43k-sample
// blocks), which is what the fusion removes.
constexpr std::size_t kFuseTileSamples = 1024;

void append_u64(std::string& s, std::uint64_t v) {
  char buf[17];
  static const char* hex = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[i] = hex[v & 0xf];
    v >>= 4;
  }
  buf[16] = '\0';
  s += buf;
  s += '.';
}

void append_i64(std::string& s, std::int64_t v) {
  append_u64(s, static_cast<std::uint64_t>(v));
}

void append_double_bits(std::string& s, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  append_u64(s, bits);
}

/// Serialises one plan into a key.  `structural` drops the fields a
/// SwapMode::kSplice may change (tuning word, coefficient values, output
/// conditioning) but keeps everything the splice contract requires to be
/// equal -- byte-equal keys == splice-compatible, the same checks
/// DdcPipeline::swap_plan and the Stage::can_splice overrides perform.
std::string plan_key(const ChainPlan& plan, bool structural) {
  std::string key = structural ? "s1." : "c1.";
  const FrontEndSpec& fe = plan.front_end;
  append_double_bits(key, plan.input_rate_hz);
  append_i64(key, fe.nco_amplitude_bits);
  append_i64(key, fe.nco_table_bits);
  append_i64(key, static_cast<int>(fe.nco_mode));
  append_i64(key, fe.input_bits);
  append_i64(key, fe.mixer_out_bits);
  append_i64(key, static_cast<int>(fe.mixer_rounding));
  if (!structural)
    append_u64(key, dsp::PhaseAccumulator::tuning_word(fe.nco_freq_hz,
                                                       plan.input_rate_hz));
  for (const StageSpec& st : plan.stages) {
    key += '|';
    append_i64(key, static_cast<int>(st.kind));
    append_i64(key, st.decimation);
    if (st.kind == StageSpec::Kind::kCic) {
      append_i64(key, st.cic_stages);
      append_i64(key, st.diff_delay);
      append_i64(key, st.input_bits);
      append_i64(key, st.register_bits);
      for (int p : st.prune_shifts) append_i64(key, p);
    }
    if (st.kind == StageSpec::Kind::kFirDecimator ||
        st.kind == StageSpec::Kind::kPolyphaseFir) {
      append_u64(key, st.taps.size());
      if (!structural)
        for (std::int64_t t : st.taps) append_i64(key, t);
    }
    if (!structural) {
      append_i64(key, st.post_shift);
      append_i64(key, st.narrow_bits);
      append_i64(key, static_cast<int>(st.rounding));
    }
  }
  return key;
}

dsp::CicDecimator::Config cic_config(const StageSpec& st) {
  dsp::CicDecimator::Config c;
  c.stages = st.cic_stages;
  c.decimation = st.decimation;
  c.diff_delay = st.diff_delay;
  c.input_bits = st.input_bits;
  c.register_bits = st.register_bits;
  c.prune_shifts = st.prune_shifts;
  return c;
}

/// One mixer rail as a plain int32 loop: narrow(shift_right(x * m)).  Exact
/// when the product fits 31 bits (CompiledPlan::int32_mixer()): then so do
/// the product plus its rounding offset and both saturation bounds.
/// `bits` == 0 leaves the shifted product unnarrowed, as
/// simd::mul_shift_narrow_block does.  The loop runs in the active kernel
/// tier.
void mix_rail_i32(const std::int64_t* x, const std::int32_t* m, std::size_t n,
                  int shift, int bits, fixed::Rounding rounding, std::int32_t* out) {
  const std::int32_t round = rounding == fixed::Rounding::kNearest && shift > 0
                                 ? std::int32_t{1} << (shift - 1)
                                 : 0;
  const auto hi = static_cast<std::int32_t>(bits == 0 ? INT32_MAX : fixed::max_for_bits(bits));
  const auto lo = static_cast<std::int32_t>(bits == 0 ? INT32_MIN : fixed::min_for_bits(bits));
  simd::run_tiered([&]() TWIDDC_ALWAYS_INLINE {
    for (std::size_t k = 0; k < n; ++k) {
      const std::int32_t v = (static_cast<std::int32_t>(x[k]) * m[k] + round) >> shift;
      out[k] = std::min(std::max(v, lo), hi);
    }
  });
}

}  // namespace

// ------------------------------------------------------------------- TapSet

TapSet::TapSet(const std::vector<std::int64_t>& taps)
    : forward(taps),
      reversed(taps.rbegin(), taps.rend()),
      fits_i32(simd::all_fit_i32(taps.data(), taps.size())) {}

// ---------------------------------------------------------------- CoeffPool

CoeffPool& CoeffPool::instance() {
  static CoeffPool pool;
  return pool;
}

std::shared_ptr<const TapSet> CoeffPool::taps(const std::vector<std::int64_t>& taps) {
  // Content-addressed: the raw bytes of the quantised coefficients.
  std::string key(reinterpret_cast<const char*>(taps.data()),
                  taps.size() * sizeof(std::int64_t));
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.tap_requests;
  auto it = taps_.find(key);
  if (it != taps_.end()) {
    if (auto held = it->second.lock()) {
      ++stats_.tap_hits;
      return held;
    }
  }
  auto made = std::make_shared<const TapSet>(taps);
  taps_[std::move(key)] = made;
  // Weak entries outlive their artifacts; sweep the corpses occasionally so
  // a long-running process cycling through random plans stays bounded.
  if (taps_.size() > 256) {
    for (auto e = taps_.begin(); e != taps_.end();)
      e = e->second.expired() ? taps_.erase(e) : std::next(e);
  }
  return made;
}

std::shared_ptr<const std::vector<std::int32_t>> CoeffPool::sine_table(
    int table_bits, int amplitude_bits) {
  const std::uint64_t key = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                                table_bits))
                             << 32) |
                            static_cast<std::uint32_t>(amplitude_bits);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.table_requests;
  auto it = tables_.find(key);
  if (it != tables_.end()) {
    if (auto held = it->second.lock()) {
      ++stats_.table_hits;
      return held;
    }
  }
  auto made = std::make_shared<const std::vector<std::int32_t>>(
      dsp::make_quarter_sine_table(table_bits, amplitude_bits));
  tables_[key] = made;
  return made;
}

CoeffPool::Stats CoeffPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// --------------------------------------------------------------------- keys

std::string canonical_plan_key(const ChainPlan& plan) {
  return plan_key(plan, /*structural=*/false);
}

std::string structural_plan_key(const ChainPlan& plan) {
  return plan_key(plan, /*structural=*/true);
}

// ------------------------------------------------------------- CompiledPlan

CompiledPlan::CompiledPlan(const ChainPlan& plan) : plan_(plan) {
  plan_.validate();
  // Deep-validate exactly what execution will need, so configure() fails
  // here (typed, nothing cached) rather than mid-stream: the mixer's shift
  // must be non-negative, every CIC geometry must be realisable, and the
  // fixed rail needs quantised taps.
  {
    dsp::ComplexMixer::Config mc;
    mc.input_bits = plan_.front_end.input_bits;
    mc.nco_amplitude_bits = plan_.front_end.nco_amplitude_bits;
    mc.output_bits = plan_.front_end.mixer_out_bits;
    mc.rounding = plan_.front_end.mixer_rounding;
    dsp::ComplexMixer probe(mc);
    (void)probe;
  }
  // Each CIC stage's form comes from its geometry: pruning breaks the
  // linearity the non-recursive form relies on, only power-of-two
  // decimations factor into halving sub-stages here, and only registers of
  // at most 32 bits run on its 32-bit lanes.  accepts() also validates the
  // geometry, throwing where CicDecimator would.
  for (const StageSpec& st : plan_.stages) {
    non_recursive_.push_back(st.kind == StageSpec::Kind::kCic &&
                             dsp::NonRecursiveCic::accepts(cic_config(st)));
    if ((st.kind == StageSpec::Kind::kFirDecimator ||
         st.kind == StageSpec::Kind::kPolyphaseFir) &&
        st.taps.empty())
      throw ConfigError("CompiledPlan: stage '" + st.label +
                        "' has no quantised taps (fixed-rail execution "
                        "needs StageSpec::taps)");
  }

  const FrontEndSpec& fe = plan_.front_end;
  int32_mixer_ = fe.input_bits + fe.nco_amplitude_bits - 1 <= 31 && non_recursive_[0];

  tuning_word_ = dsp::PhaseAccumulator::tuning_word(plan_.front_end.nco_freq_hz,
                                                    plan_.input_rate_hz);
  canonical_key_ = canonical_plan_key(plan_);
  structural_key_ = structural_plan_key(plan_);

  if (plan_.front_end.nco_mode == dsp::Nco::Mode::kLookupTable)
    sine_table_ = CoeffPool::instance().sine_table(plan_.front_end.nco_table_bits,
                                                   plan_.front_end.nco_amplitude_bits);
  stage_taps_.reserve(plan_.stages.size());
  for (const StageSpec& st : plan_.stages) {
    if (st.kind == StageSpec::Kind::kFirDecimator ||
        st.kind == StageSpec::Kind::kPolyphaseFir)
      stage_taps_.push_back(CoeffPool::instance().taps(st.taps));
    else
      stage_taps_.push_back(nullptr);
  }
}

// -------------------------------------------------------- CompiledPlanCache

CompiledPlanCache& CompiledPlanCache::instance() {
  static CompiledPlanCache cache;
  return cache;
}

std::shared_ptr<const CompiledPlan> CompiledPlanCache::get_or_compile(
    const ChainPlan& plan) {
  // The canonical key needs a positive sample rate (tuning-word math);
  // validate() rejects everything the key computation cannot survive.
  plan.validate();
  const std::string key = canonical_plan_key(plan);

  // Trace args carry a hash of the canonical key, so identical plans are
  // correlatable across hit/miss/evict events without shipping the string.
  const std::uint64_t key_hash = std::hash<std::string>{}(key);

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.lookups;
  auto it = index_.find(key);
  if (it != index_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // bump to MRU
    if (trace::enabled(trace::Category::kCache)) {
      static const std::uint16_t kName = trace::intern("plan_cache_hit");
      trace::emit(trace::Category::kCache, kName, trace::Phase::kInstant,
                  key_hash, stats_.hits);
    }
    return lru_.front().second;
  }
  ++stats_.misses;
  if (trace::enabled(trace::Category::kCache)) {
    static const std::uint16_t kName = trace::intern("plan_cache_miss");
    trace::emit(trace::Category::kCache, kName, trace::Phase::kInstant,
                key_hash, stats_.misses);
  }
  // Compile under the lock: concurrent configure() calls racing on the same
  // plan would otherwise each pay the compile; the artifact is tiny and the
  // compile is microseconds, so serialising here is the cheap choice.
  trace::Span compile_span(trace::Category::kCache,
                           [] {
                             static const std::uint16_t kName =
                                 trace::intern("plan_compile");
                             return kName;
                           }(),
                           key_hash);
  const auto t0 = std::chrono::steady_clock::now();
  auto compiled = std::make_shared<const CompiledPlan>(plan);
  stats_.compile_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  compile_span.finish();
  lru_.emplace_front(key, compiled);
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    if (trace::enabled(trace::Category::kCache)) {
      static const std::uint16_t kName = trace::intern("plan_cache_evict");
      trace::emit(trace::Category::kCache, kName, trace::Phase::kInstant,
                  std::hash<std::string>{}(lru_.back().first), lru_.size() - 1);
    }
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return compiled;
}

CompiledPlanCache::Stats CompiledPlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = lru_.size();
  s.capacity = capacity_;
  return s;
}

void CompiledPlanCache::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity < 1 ? 1 : capacity;
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void CompiledPlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

// ------------------------------------------------------------ FusedChainExec

FusedChainExec::FusedChainExec(std::shared_ptr<const CompiledPlan> plan)
    : plan_(std::move(plan)) {
  const FrontEndSpec& fe = plan_->plan().front_end;
  mixer_shift_ = fe.input_bits + fe.nco_amplitude_bits - 1 - fe.mixer_out_bits;
  mixer_narrow_ok_ = fe.input_bits <= 32 && fe.nco_amplitude_bits <= 32;
  build_stages();
}

void FusedChainExec::build_stages() {
  stages_.clear();
  const ChainPlan& plan = plan_->plan();
  stages_.reserve(plan.stages.size());
  for (std::size_t i = 0; i < plan.stages.size(); ++i) {
    const StageSpec& spec = plan.stages[i];
    StageState st;
    st.kind = spec.kind;
    st.decimation = spec.decimation;
    st.req = Conditioning{spec.post_shift, spec.narrow_bits, spec.rounding};
    if (spec.kind == StageSpec::Kind::kCic) {
      const dsp::CicDecimator::Config c = cic_config(spec);
      for (int rail = 0; rail < 2; ++rail) {
        if (plan_->non_recursive(i))
          st.nr.emplace_back(c);
        else
          st.cic.emplace_back(c);
      }
    } else if (spec.kind == StageSpec::Kind::kFirDecimator ||
               spec.kind == StageSpec::Kind::kPolyphaseFir) {
      st.taps = plan_->stage_taps()[i];
      const std::size_t hist = st.taps->forward.size() - 1;
      st.tail[0].assign(hist, 0);
      st.tail[1].assign(hist, 0);
    }
    stages_.push_back(std::move(st));
  }
}

void FusedChainExec::reset() {
  phase_ = 0;
  for (StageState& st : stages_) {
    for (auto& c : st.cic) c.reset();
    for (auto& c : st.nr) c.reset();
    st.tail[0].assign(st.tail[0].size(), 0);
    st.tail[1].assign(st.tail[1].size(), 0);
    st.fir_phase = 0;
  }
}

bool FusedChainExec::can_splice(const CompiledPlan& next) const {
  return next.structural_key() == plan_->structural_key();
}

void FusedChainExec::splice(std::shared_ptr<const CompiledPlan> next) {
  if (!can_splice(*next))
    throw ConfigError("FusedChainExec::splice: plan '" + next->plan().name +
                      "' is structurally incompatible with running plan '" +
                      plan_->plan().name + "' (use SwapMode::kFlush)");
  // Equal structural keys guarantee equal stage counts/kinds/geometry; only
  // coefficients, conditioning and the tuning word move.  Filter state (CIC
  // registers, FIR delay lines, the decimation phases, the NCO phase) stays.
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const StageSpec& spec = next->plan().stages[i];
    stages_[i].req = Conditioning{spec.post_shift, spec.narrow_bits, spec.rounding};
    if (stages_[i].taps) stages_[i].taps = next->stage_taps()[i];
  }
  plan_ = std::move(next);
}

void FusedChainExec::run_stage(StageState& st, int rail,
                               std::span<const std::int64_t> in,
                               std::vector<std::int64_t>& out) {
  const Conditioning req = st.req;
  const auto r = static_cast<std::size_t>(rail);
  switch (st.kind) {
    case StageSpec::Kind::kPassthrough:
      out.insert(out.end(), in.begin(), in.end());
      return;
    case StageSpec::Kind::kScale:
      for (std::int64_t x : in) out.push_back(req.apply(x));
      return;
    case StageSpec::Kind::kCic:
      run_cic(st, r, in, out);
      return;
    case StageSpec::Kind::kFirDecimator:
    case StageSpec::Kind::kPolyphaseFir: {
      // Flat-window form: both FIR forms compute the same MAC set and int64
      // sums are order-independent (mod 2^64), so one contiguous dot per
      // output is bit-exact with either staged structure.  The output narrow
      // is fused into the same sweep.
      const TapSet& taps = *st.taps;
      const std::size_t n = taps.forward.size();
      auto& tail = st.tail[r];
      window_.clear();
      window_.reserve(tail.size() + in.size());
      window_.insert(window_.end(), tail.begin(), tail.end());
      window_.insert(window_.end(), in.begin(), in.end());
      const bool narrow_ok =
          taps.fits_i32 && simd::all_fit_i32(window_.data(), window_.size());
      const int d = st.decimation;
      // Input j produces an output when fir_phase + j + 1 is a multiple of d.
      for (std::size_t j = static_cast<std::size_t>(d - 1 - st.fir_phase);
           j < in.size(); j += static_cast<std::size_t>(d))
        out.push_back(req.apply(
            simd::dot_i64(taps.reversed.data(), window_.data() + j, n, narrow_ok)));
      if (tail.size() > 0)
        tail.assign(window_.end() - static_cast<std::ptrdiff_t>(tail.size()),
                    window_.end());
      if (rail == 1)  // both rails consumed the tile; advance the shared phase
        st.fir_phase = (st.fir_phase + static_cast<int>(in.size() % static_cast<std::size_t>(d))) % d;
      return;
    }
  }
}

template <typename In>
void FusedChainExec::run_cic(StageState& st, std::size_t rail, std::span<const In> in,
                             std::vector<std::int64_t>& out) {
  const Conditioning req = st.req;
  window_.clear();
  if constexpr (std::is_same_v<In, std::int32_t>)
    st.nr[rail].process_block(in, window_);  // int32_mixer() implies this form
  else if (st.nr.empty())
    st.cic[rail].process_block(in, window_);
  else
    st.nr[rail].process_block(in, window_);
  for (std::int64_t v : window_) out.push_back(req.apply(v));
}

void FusedChainExec::process_block(std::span<const std::int64_t> in,
                                   std::vector<IqSample>& out) {
  const ChainPlan& plan = plan_->plan();
  const FrontEndSpec& fe = plan.front_end;
  // All-or-nothing input validation, exactly like the staged pipeline: a
  // mid-block throw must not leave the NCO advanced past the rails.
  check_input_block(in, fe.input_bits, "FusedChainExec::process_block");

  const std::uint32_t step = plan_->tuning_word();
  const bool mixer_i32 = plan_->int32_mixer();
  for (std::size_t off = 0; off < in.size(); off += kFuseTileSamples) {
    const std::span<const std::int64_t> tile =
        in.subspan(off, std::min(kFuseTileSamples, in.size() - off));
    const std::size_t m = tile.size();
    cos_tile_.resize(m);
    sin_tile_.resize(m);
    if (fe.nco_mode == dsp::Nco::Mode::kLookupTable) {
      phase_ = simd::lut_sincos_block(phase_, step, plan_->sine_table()->data(),
                                      fe.nco_table_bits, m, cos_tile_.data(),
                                      sin_tile_.data());
    } else {
      for (std::size_t k = 0; k < m; ++k) {
        const dsp::SinCos sc = dsp::taylor_sincos(phase_, fe.nco_amplitude_bits);
        cos_tile_[k] = sc.cos;
        sin_tile_[k] = sc.sin;
        phase_ += step;
      }
    }
    const std::int32_t* const nco[2] = {cos_tile_.data(), sin_tile_.data()};
    for (int rail = 0; rail < 2; ++rail) {
      if (mixer_i32) {
        mix32_tile_[rail].resize(m);
        mix_rail_i32(tile.data(), nco[rail], m, mixer_shift_, fe.mixer_out_bits,
                     fe.mixer_rounding, mix32_tile_[rail].data());
      } else {
        mix_tile_[rail].resize(m);
        simd::mul_shift_narrow_block(tile.data(), nco[rail], m, mixer_shift_,
                                     fe.mixer_out_bits, fe.mixer_rounding,
                                     fixed::Overflow::kSaturate, mixer_narrow_ok_,
                                     mix_tile_[rail].data());
      }
    }

    std::span<const std::int64_t> rail_out[2];
    for (int rail = 0; rail < 2; ++rail) {
      std::span<const std::int64_t> cur = mix_tile_[rail];
      std::size_t s = 0;
      if (mixer_i32) {
        // Stage 0 is a non-recursive CIC; it reads the int32 tile directly.
        stage_a_[rail].clear();
        run_cic(stages_[0], static_cast<std::size_t>(rail),
                std::span<const std::int32_t>(mix32_tile_[rail]), stage_a_[rail]);
        cur = stage_a_[rail];
        s = 1;
      }
      for (; s < stages_.size(); ++s) {
        std::vector<std::int64_t>& buf =
            (s % 2 == 0 ? stage_a_ : stage_b_)[rail];
        buf.clear();
        run_stage(stages_[s], rail, cur, buf);
        cur = buf;
      }
      rail_out[rail] = cur;
    }
    if (rail_out[0].size() != rail_out[1].size())
      throw SimulationError("FusedChainExec: I/Q rails lost rate lock");
    for (std::size_t j = 0; j < rail_out[0].size(); ++j)
      out.push_back(IqSample{rail_out[0][j], rail_out[1][j]});
  }
}

}  // namespace twiddc::core
