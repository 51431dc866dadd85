#include "src/dsp/cic.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "src/common/error.hpp"
#include "src/common/simd.hpp"
#include "src/fixed/qformat.hpp"

namespace twiddc::dsp {

int CicDecimator::checked_register_bits(const Config& config) {
  if (config.stages < 1 || config.stages > 8)
    throw ConfigError("CicDecimator: stages must be in [1,8], got " +
                      std::to_string(config.stages));
  if (config.decimation < 1)
    throw ConfigError("CicDecimator: decimation must be >= 1, got " +
                      std::to_string(config.decimation));
  if (config.diff_delay < 1 || config.diff_delay > 2)
    throw ConfigError("CicDecimator: diff_delay must be 1 or 2");
  if (config.input_bits < 1 || config.input_bits > 32)
    throw ConfigError("CicDecimator: input_bits must be in [1,32]");
  if (!config.prune_shifts.empty() &&
      config.prune_shifts.size() != static_cast<std::size_t>(config.stages))
    throw ConfigError("CicDecimator: prune_shifts must be empty or one per stage");
  for (int s : config.prune_shifts)
    if (s < 0 || s > 32) throw ConfigError("CicDecimator: prune shift out of range");

  const int full = config.input_bits + fixed::cic_bit_growth(config.stages,
                                                             config.decimation,
                                                             config.diff_delay);
  const int bits = config.register_bits == 0 ? full : config.register_bits;
  if (bits < 2 || bits > 63)
    throw ConfigError("CicDecimator: register width " + std::to_string(bits) +
                      " not representable (need 2..63 bits)");
  return bits;
}

CicDecimator::CicDecimator(const Config& config)
    : config_(config), register_bits_(checked_register_bits(config)) {
  integrators_.assign(static_cast<std::size_t>(config.stages), 0);
  comb_delays_.assign(static_cast<std::size_t>(config.stages * config.diff_delay), 0);
}

void CicDecimator::reset() {
  integrators_.assign(integrators_.size(), 0);
  comb_delays_.assign(comb_delays_.size(), 0);
  decim_count_ = 0;
  samples_in_ = 0;
  samples_out_ = 0;
}

std::int64_t CicDecimator::gain() const {
  return fixed::cic_gain(config_.stages, config_.decimation, config_.diff_delay);
}

int CicDecimator::growth_bits() const {
  return fixed::cic_bit_growth(config_.stages, config_.decimation, config_.diff_delay);
}

std::int64_t CicDecimator::output_bound() const {
  // A full-scale input of magnitude 2^(input_bits-1) emerges with at most
  // gain() times that magnitude (DC gain is the filter's max gain).
  std::int64_t prune_scale = 0;
  for (int s : config_.prune_shifts) prune_scale += s;
  return (gain() >> prune_scale) * (std::int64_t{1} << (config_.input_bits - 1));
}

std::optional<std::int64_t> CicDecimator::push(std::int64_t x) {
  ++samples_in_;
  // Integrator chain at the input rate.  Wrap-around arithmetic: this is the
  // hardware behaviour the algorithm depends on.
  std::int64_t v = x;
  for (int s = 0; s < config_.stages; ++s) {
    if (!config_.prune_shifts.empty())
      v = fixed::shift_right(v, config_.prune_shifts[static_cast<std::size_t>(s)],
                             fixed::Rounding::kTruncate);
    auto& acc = integrators_[static_cast<std::size_t>(s)];
    acc = fixed::wrap_add(acc, v, register_bits_);
    v = acc;
  }
  // Decimator: 1 of every R integrator outputs reaches the combs.
  if (++decim_count_ < config_.decimation) return std::nullopt;
  decim_count_ = 0;
  // Comb chain at the output rate: y = v - z^-M.
  for (int s = 0; s < config_.stages; ++s) {
    const std::size_t base = static_cast<std::size_t>(s * config_.diff_delay);
    const std::int64_t delayed = comb_delays_[base + static_cast<std::size_t>(config_.diff_delay - 1)];
    for (int d = config_.diff_delay - 1; d > 0; --d)
      comb_delays_[base + static_cast<std::size_t>(d)] =
          comb_delays_[base + static_cast<std::size_t>(d - 1)];
    comb_delays_[base] = v;
    v = fixed::wrap_sub(v, delayed, register_bits_);
  }
  ++samples_out_;
  return v;
}

void CicDecimator::process_block(std::span<const std::int64_t> in,
                                 std::vector<std::int64_t>& out) {
  // Dispatch to a kernel with a compile-time stage count so the integrator
  // cascade unrolls completely (the cascade is a loop-carried dependency
  // chain; the win is removing the per-stage loop/branch overhead, not SIMD).
  const bool prune = !config_.prune_shifts.empty();
  switch (config_.stages) {
    case 1: prune ? run_block<1, true>(in, out) : run_block<1, false>(in, out); break;
    case 2: prune ? run_block<2, true>(in, out) : run_block<2, false>(in, out); break;
    case 3: prune ? run_block<3, true>(in, out) : run_block<3, false>(in, out); break;
    case 4: prune ? run_block<4, true>(in, out) : run_block<4, false>(in, out); break;
    case 5: prune ? run_block<5, true>(in, out) : run_block<5, false>(in, out); break;
    case 6: prune ? run_block<6, true>(in, out) : run_block<6, false>(in, out); break;
    case 7: prune ? run_block<7, true>(in, out) : run_block<7, false>(in, out); break;
    default: prune ? run_block<8, true>(in, out) : run_block<8, false>(in, out); break;
  }
}

template <int Stages, bool Prune>
void CicDecimator::run_block(std::span<const std::int64_t> in,
                             std::vector<std::int64_t>& out) {
  // Hoist the integrator state into a stack array so the inner loop keeps it
  // in registers.  Without pruning the accumulators run *unwrapped* in uint64
  // arithmetic: additions commute with truncation to the low register_bits_,
  // so the wrap (a sign-extending shift pair) is only applied to the value
  // handed to the combs and when the state is stored back -- the result is
  // bit-identical to wrapping on every add, at one add per stage per sample.
  // With pruning each stage's output feeds an arithmetic right shift, which
  // reads the bits above register_bits_, so the wrap must happen per read.
  std::uint64_t acc[Stages];
  for (int s = 0; s < Stages; ++s)
    acc[s] = static_cast<std::uint64_t>(integrators_[static_cast<std::size_t>(s)]);
  [[maybe_unused]] int shifts[Stages] = {};
  if constexpr (Prune) {
    for (int s = 0; s < Stages; ++s)
      shifts[s] = config_.prune_shifts[static_cast<std::size_t>(s)];
  }
  const int wrap_shift = 64 - register_bits_;
  const int decimation = config_.decimation;
  const int diff_delay = config_.diff_delay;
  int count = decim_count_;

  for (std::int64_t x : in) {
    std::int64_t v = x;
    if constexpr (Prune) {
      for (int s = 0; s < Stages; ++s) {
        acc[s] += static_cast<std::uint64_t>(v >> shifts[s]);
        v = static_cast<std::int64_t>(acc[s] << wrap_shift) >> wrap_shift;
      }
    } else {
      acc[0] += static_cast<std::uint64_t>(x);
      for (int s = 1; s < Stages; ++s) acc[s] += acc[s - 1];
      v = static_cast<std::int64_t>(acc[Stages - 1] << wrap_shift) >> wrap_shift;
    }
    if (++count < decimation) continue;
    count = 0;
    for (int s = 0; s < Stages; ++s) {
      const std::size_t base = static_cast<std::size_t>(s * diff_delay);
      const std::int64_t delayed =
          comb_delays_[base + static_cast<std::size_t>(diff_delay - 1)];
      for (int d = diff_delay - 1; d > 0; --d)
        comb_delays_[base + static_cast<std::size_t>(d)] =
            comb_delays_[base + static_cast<std::size_t>(d - 1)];
      comb_delays_[base] = v;
      v = fixed::wrap_sub(v, delayed, register_bits_);
    }
    ++samples_out_;
    out.push_back(v);
  }

  for (int s = 0; s < Stages; ++s)
    integrators_[static_cast<std::size_t>(s)] =
        static_cast<std::int64_t>(acc[s] << wrap_shift) >> wrap_shift;
  decim_count_ = count;
  samples_in_ += in.size();
}

std::vector<std::int64_t> CicDecimator::process(const std::vector<std::int64_t>& in) {
  std::vector<std::int64_t> out;
  out.reserve(in.size() / static_cast<std::size_t>(config_.decimation) + 1);
  process_block(in, out);
  return out;
}

// ------------------------------------------------------------ NonRecursiveCic

namespace {

/// The wrapping arithmetic lane: sums mod 2^32 reduce exactly to any
/// register width up to 32.
using Lane = std::uint32_t;

/// Sub-stages run over chunks of this many inputs, so the windows stay
/// L1-resident.
constexpr std::size_t kNonRecursiveChunk = 1024;

/// The calling thread's ping-pong sub-stage windows: N history lanes, then
/// one chunk.  They are scratch, not state, so every kernel on a thread
/// shares them.
std::vector<Lane>& window(int which) {
  thread_local std::vector<Lane> windows[2];
  return windows[which];
}

/// The N + 1 binomial taps of (1 + z^-1)^N.
template <int N>
constexpr std::array<Lane, N + 1> binomial_taps() {
  std::array<Lane, N + 1> c{};
  c[0] = 1;
  for (int n = 1; n <= N; ++n)
    for (int j = n; j > 0; --j) c[j] += c[j - 1];
  return c;
}

// The loops below are always inlined into NonRecursiveCic::run's tiered
// body, so each kernel tier compiles them for its own registers.

/// One decimating sub-stage.  `w` holds the sub-stage's last N inputs, then
/// `n` new ones.  An input emits (1 + z^-1)^N when the inputs since the last
/// output, `phase` included, reach two.  Returns the output count.
template <int N>
TWIDDC_ALWAYS_INLINE inline std::size_t halve_stage(const Lane* w, std::size_t n,
                                                    int& phase, Lane* out) {
  constexpr std::array<Lane, N + 1> c = binomial_taps<N>();
  const std::size_t first = phase == 0 ? 1 : 0;
  const std::size_t m = n > first ? (n - first + 1) / 2 : 0;
  const Lane* x = w + N + first;
  for (std::size_t i = 0; i < m; ++i) {
    const Lane* p = x + 2 * i;
    Lane acc = 0;
    for (int j = 0; j <= N; ++j) acc += c[j] * p[-j];
    out[i] = acc;
  }
  phase = static_cast<int>((static_cast<std::size_t>(phase) + n) & 1);
  return m;
}

/// The output-rate (1 + z^-1)^N stage of M = 2, over the same window layout.
template <int N>
TWIDDC_ALWAYS_INLINE inline void output_rate_stage(const Lane* w, std::size_t n,
                                                  Lane* out) {
  constexpr std::array<Lane, N + 1> c = binomial_taps<N>();
  for (std::size_t i = 0; i < n; ++i) {
    const Lane* p = w + N + i;
    Lane acc = 0;
    for (int j = 0; j <= N; ++j) acc += c[j] * p[-j];
    out[i] = acc;
  }
}

TWIDDC_ALWAYS_INLINE inline std::size_t halve(int stages, const Lane* w, std::size_t n,
                                              int& phase, Lane* out) {
  switch (stages) {
    case 1: return halve_stage<1>(w, n, phase, out);
    case 2: return halve_stage<2>(w, n, phase, out);
    case 3: return halve_stage<3>(w, n, phase, out);
    case 4: return halve_stage<4>(w, n, phase, out);
    case 5: return halve_stage<5>(w, n, phase, out);
    case 6: return halve_stage<6>(w, n, phase, out);
    case 7: return halve_stage<7>(w, n, phase, out);
    default: return halve_stage<8>(w, n, phase, out);
  }
}

TWIDDC_ALWAYS_INLINE inline void output_rate_stage(int stages, const Lane* w,
                                                  std::size_t n, Lane* out) {
  switch (stages) {
    case 1: return output_rate_stage<1>(w, n, out);
    case 2: return output_rate_stage<2>(w, n, out);
    case 3: return output_rate_stage<3>(w, n, out);
    case 4: return output_rate_stage<4>(w, n, out);
    case 5: return output_rate_stage<5>(w, n, out);
    case 6: return output_rate_stage<6>(w, n, out);
    case 7: return output_rate_stage<7>(w, n, out);
    default: return output_rate_stage<8>(w, n, out);
  }
}

}  // namespace

bool NonRecursiveCic::accepts(const CicDecimator::Config& config) {
  const int r = config.decimation;
  return CicDecimator::checked_register_bits(config) <= 32 &&
         config.prune_shifts.empty() && (r & (r - 1)) == 0;
}

NonRecursiveCic::NonRecursiveCic(const CicDecimator::Config& config)
    : stages_(config.stages),
      diff_delay_(config.diff_delay),
      register_bits_(CicDecimator::checked_register_bits(config)) {
  if (!accepts(config))
    throw ConfigError("NonRecursiveCic: needs an unpruned CIC with a power-of-two "
                      "decimation and at most 32 register bits, got R=" +
                      std::to_string(config.decimation) + " and " +
                      std::to_string(register_bits_) + " bits");
  while ((1 << levels_) < config.decimation) ++levels_;
  phase_.assign(static_cast<std::size_t>(levels_), 0);
  hist_.assign(static_cast<std::size_t>(stages_ * (levels_ + 1)), 0);
}

void NonRecursiveCic::reset() {
  phase_.assign(phase_.size(), 0);
  hist_.assign(hist_.size(), 0);
}

void NonRecursiveCic::run(const std::int64_t* wide, const std::int32_t* narrow,
                          std::size_t size, std::vector<std::int64_t>& out) {
  const std::size_t order = static_cast<std::size_t>(stages_);
  const int wrap_shift = 32 - register_bits_;
  std::vector<Lane>& wa = window(0);
  std::vector<Lane>& wb = window(1);
  wa.resize(order + kNonRecursiveChunk);
  wb.resize(order + kNonRecursiveChunk);
  // Each sub-stage reads window a and writes its outputs after the next
  // sub-stage's history in b; the last N inputs of a become its history.
  const auto load_history = [this, order](std::size_t stage, Lane* w) {
    std::copy_n(hist_.begin() + static_cast<std::ptrdiff_t>(stage * order), order, w);
  };
  const auto save_history = [this, order](std::size_t stage, const Lane* w) {
    std::copy_n(w, order, hist_.begin() + static_cast<std::ptrdiff_t>(stage * order));
  };
  const auto levels = static_cast<std::size_t>(levels_);
  // One tier for the whole block: the lane load, every sub-stage and the
  // sign-extending store compile once per tier.  Only the lane load
  // depends on the input type, so both loads live in the one body.
  simd::run_tiered([&]() TWIDDC_ALWAYS_INLINE {
    for (std::size_t off = 0; off < size; off += kNonRecursiveChunk) {
      std::size_t n = std::min(kNonRecursiveChunk, size - off);
      Lane* a = wa.data();
      Lane* b = wb.data();
      load_history(0, a);
      if (wide != nullptr)
        for (std::size_t i = 0; i < n; ++i) a[order + i] = static_cast<Lane>(wide[off + i]);
      else
        for (std::size_t i = 0; i < n; ++i) a[order + i] = static_cast<Lane>(narrow[off + i]);
      for (std::size_t s = 0; s < levels; ++s) {
        load_history(s + 1, b);
        const std::size_t m = halve(stages_, a, n, phase_[s], b + order);
        save_history(s, a + n);
        std::swap(a, b);
        n = m;
      }
      const Lane* y = a + order;
      if (diff_delay_ == 2) {
        output_rate_stage(stages_, a, n, b);
        save_history(levels, a + n);
        y = b;
      }
      const std::size_t base = out.size();
      out.resize(base + n);
      std::int64_t* dst = out.data() + base;
      for (std::size_t i = 0; i < n; ++i)
        dst[i] = static_cast<std::int32_t>(y[i] << wrap_shift) >> wrap_shift;
    }
  });
}

void NonRecursiveCic::process_block(std::span<const std::int64_t> in,
                                    std::vector<std::int64_t>& out) {
  run(in.data(), nullptr, in.size(), out);
}

void NonRecursiveCic::process_block(std::span<const std::int32_t> in,
                                    std::vector<std::int64_t>& out) {
  run(nullptr, in.data(), in.size(), out);
}

}  // namespace twiddc::dsp
