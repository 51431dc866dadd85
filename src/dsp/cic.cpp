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

bool CicDecimator::process_block_packed4(CicDecimator* const lanes[4],
                                         const std::int64_t* const in[4],
                                         std::size_t n,
                                         std::vector<std::int64_t>* const out[4]) {
#if defined(__AVX2__)
  const CicDecimator& l0 = *lanes[0];
  if (!l0.config_.prune_shifts.empty()) return false;
  for (int l = 1; l < 4; ++l) {
    const CicDecimator& ll = *lanes[l];
    if (ll.config_.stages != l0.config_.stages ||
        ll.config_.decimation != l0.config_.decimation ||
        ll.config_.diff_delay != l0.config_.diff_delay ||
        ll.register_bits_ != l0.register_bits_ ||
        !ll.config_.prune_shifts.empty() || ll.decim_count_ != l0.decim_count_)
      return false;
  }
  if (!simd::enabled() || n == 0) return simd::enabled();

  const int stages = l0.config_.stages;
  const int decimation = l0.config_.decimation;
  const int diff_delay = l0.config_.diff_delay;
  const int wrap_shift = 64 - l0.register_bits_;  // register_bits_ <= 63
  // Same unwrapped-accumulator trick as run_block: adds commute with
  // truncation to the low register_bits_, so the four lanes' state rides in
  // one register per stage and the wrap happens only on read/store.
  __m256i acc[8];
  for (int s = 0; s < stages; ++s)
    acc[s] = _mm256_set_epi64x(
        lanes[3]->integrators_[static_cast<std::size_t>(s)],
        lanes[2]->integrators_[static_cast<std::size_t>(s)],
        lanes[1]->integrators_[static_cast<std::size_t>(s)],
        lanes[0]->integrators_[static_cast<std::size_t>(s)]);
  int count = l0.decim_count_;

  for (std::size_t t = 0; t < n; ++t) {
    const __m256i x = _mm256_set_epi64x(in[3][t], in[2][t], in[1][t], in[0][t]);
    acc[0] = _mm256_add_epi64(acc[0], x);
    for (int s = 1; s < stages; ++s) acc[s] = _mm256_add_epi64(acc[s], acc[s - 1]);
    if (++count < decimation) continue;
    count = 0;
    // Decimation boundary: wrap the cascade output once for all four lanes,
    // then run the (1/R-rate) comb chains scalar per lane.
    alignas(32) std::int64_t v4[4];
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(v4),
        simd::detail::sra_epi64(_mm256_slli_epi64(acc[stages - 1], wrap_shift),
                                wrap_shift));
    for (int l = 0; l < 4; ++l) {
      CicDecimator& lane = *lanes[l];
      std::int64_t v = v4[l];
      for (int s = 0; s < stages; ++s) {
        const std::size_t base = static_cast<std::size_t>(s * diff_delay);
        const std::int64_t delayed =
            lane.comb_delays_[base + static_cast<std::size_t>(diff_delay - 1)];
        for (int d = diff_delay - 1; d > 0; --d)
          lane.comb_delays_[base + static_cast<std::size_t>(d)] =
              lane.comb_delays_[base + static_cast<std::size_t>(d - 1)];
        lane.comb_delays_[base] = v;
        v = fixed::wrap_sub(v, delayed, lane.register_bits_);
      }
      ++lane.samples_out_;
      out[l]->push_back(v);
    }
  }

  for (int s = 0; s < stages; ++s) {
    alignas(32) std::int64_t a4[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(a4), acc[s]);
    for (int l = 0; l < 4; ++l)
      lanes[l]->integrators_[static_cast<std::size_t>(s)] = static_cast<std::int64_t>(
          static_cast<std::uint64_t>(a4[l]) << wrap_shift) >>
          wrap_shift;
  }
  for (int l = 0; l < 4; ++l) {
    lanes[l]->decim_count_ = count;
    lanes[l]->samples_in_ += n;
  }
  return true;
#else
  (void)lanes;
  (void)in;
  (void)n;
  (void)out;
  return false;
#endif
}

#if defined(TWIDDC_HAVE_AVX512_KERNELS)
namespace {

/// The __m512i body of packed8, operating on raw views of the lanes' state
/// (collected by the member below, which owns the private access).  Only
/// runs after the caller verified simd::avx512_active().
TWIDDC_AVX512_TARGET void cic_packed8_kernel(
    std::int64_t* const integ[8], std::int64_t* const combs[8],
    std::uint64_t* const samples_out[8], const std::int64_t* const in[8],
    std::size_t n, std::vector<std::int64_t>* const out[8], int stages,
    int decimation, int diff_delay, int register_bits, int& count) {
  const int wrap_shift = 64 - register_bits;
  const __m128i vwrap = _mm_cvtsi32_si128(wrap_shift);
  // Same unwrapped-accumulator trick as run_block / packed4: adds commute
  // with truncation to the low register_bits, so the eight lanes' state
  // rides in one register per stage and the wrap happens only on read/store.
  __m512i acc[8];
  for (int s = 0; s < stages; ++s)
    acc[s] = _mm512_set_epi64(integ[7][s], integ[6][s], integ[5][s], integ[4][s],
                              integ[3][s], integ[2][s], integ[1][s], integ[0][s]);

  for (std::size_t t = 0; t < n; ++t) {
    const __m512i x =
        _mm512_set_epi64(in[7][t], in[6][t], in[5][t], in[4][t], in[3][t],
                         in[2][t], in[1][t], in[0][t]);
    acc[0] = _mm512_add_epi64(acc[0], x);
    for (int s = 1; s < stages; ++s) acc[s] = _mm512_add_epi64(acc[s], acc[s - 1]);
    if (++count < decimation) continue;
    count = 0;
    // Decimation boundary: wrap the cascade output once for all eight lanes,
    // then run the (1/R-rate) comb chains scalar per lane.
    alignas(64) std::int64_t v8[8];
    _mm512_store_si512(
        v8, _mm512_sra_epi64(_mm512_sll_epi64(acc[stages - 1], vwrap), vwrap));
    for (int l = 0; l < 8; ++l) {
      std::int64_t v = v8[l];
      for (int s = 0; s < stages; ++s) {
        const std::size_t base = static_cast<std::size_t>(s * diff_delay);
        const std::int64_t delayed =
            combs[l][base + static_cast<std::size_t>(diff_delay - 1)];
        for (int d = diff_delay - 1; d > 0; --d)
          combs[l][base + static_cast<std::size_t>(d)] =
              combs[l][base + static_cast<std::size_t>(d - 1)];
        combs[l][base] = v;
        v = twiddc::fixed::wrap_sub(v, delayed, register_bits);
      }
      ++*samples_out[l];
      out[l]->push_back(v);
    }
  }

  for (int s = 0; s < stages; ++s) {
    alignas(64) std::int64_t a8[8];
    _mm512_store_si512(a8, acc[s]);
    for (int l = 0; l < 8; ++l)
      integ[l][s] = static_cast<std::int64_t>(static_cast<std::uint64_t>(a8[l])
                                              << wrap_shift) >>
                    wrap_shift;
  }
}

}  // namespace
#endif  // TWIDDC_HAVE_AVX512_KERNELS

bool CicDecimator::process_block_packed8(CicDecimator* const lanes[8],
                                         const std::int64_t* const in[8],
                                         std::size_t n,
                                         std::vector<std::int64_t>* const out[8]) {
#if defined(TWIDDC_HAVE_AVX512_KERNELS)
  const CicDecimator& l0 = *lanes[0];
  if (!l0.config_.prune_shifts.empty()) return false;
  for (int l = 1; l < 8; ++l) {
    const CicDecimator& ll = *lanes[l];
    if (ll.config_.stages != l0.config_.stages ||
        ll.config_.decimation != l0.config_.decimation ||
        ll.config_.diff_delay != l0.config_.diff_delay ||
        ll.register_bits_ != l0.register_bits_ ||
        !ll.config_.prune_shifts.empty() || ll.decim_count_ != l0.decim_count_)
      return false;
  }
  if (!simd::avx512_active() || n == 0) return simd::avx512_active();

  std::int64_t* integ[8];
  std::int64_t* combs[8];
  std::uint64_t* souts[8];
  for (int l = 0; l < 8; ++l) {
    integ[l] = lanes[l]->integrators_.data();
    combs[l] = lanes[l]->comb_delays_.data();
    souts[l] = &lanes[l]->samples_out_;
  }
  int count = l0.decim_count_;
  cic_packed8_kernel(integ, combs, souts, in, n, out, l0.config_.stages,
                     l0.config_.decimation, l0.config_.diff_delay,
                     l0.register_bits_, count);
  for (int l = 0; l < 8; ++l) {
    lanes[l]->decim_count_ = count;
    lanes[l]->samples_in_ += n;
  }
  return true;
#else
  (void)lanes;
  (void)in;
  (void)n;
  (void)out;
  return false;
#endif
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

/// One decimating sub-stage.  `w` holds the sub-stage's last N inputs, then
/// `n` new ones.  An input emits (1 + z^-1)^N when the inputs since the last
/// output, `phase` included, reach two.  Returns the output count.
template <int N>
std::size_t halve_stage(const Lane* w, std::size_t n, int& phase, Lane* out) {
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
void output_rate_stage(const Lane* w, std::size_t n, Lane* out) {
  constexpr std::array<Lane, N + 1> c = binomial_taps<N>();
  for (std::size_t i = 0; i < n; ++i) {
    const Lane* p = w + N + i;
    Lane acc = 0;
    for (int j = 0; j <= N; ++j) acc += c[j] * p[-j];
    out[i] = acc;
  }
}

std::size_t halve(int stages, const Lane* w, std::size_t n, int& phase, Lane* out) {
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

void output_rate_stage(int stages, const Lane* w, std::size_t n, Lane* out) {
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

template <typename In>
void NonRecursiveCic::run(std::span<const In> in, std::vector<std::int64_t>& out) {
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
  for (std::size_t off = 0; off < in.size(); off += kNonRecursiveChunk) {
    std::size_t n = std::min(kNonRecursiveChunk, in.size() - off);
    Lane* a = wa.data();
    Lane* b = wb.data();
    load_history(0, a);
    for (std::size_t i = 0; i < n; ++i) a[order + i] = static_cast<Lane>(in[off + i]);
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
    for (std::size_t i = 0; i < n; ++i)
      out[base + i] = static_cast<std::int32_t>(y[i] << wrap_shift) >> wrap_shift;
  }
}

void NonRecursiveCic::process_block(std::span<const std::int64_t> in,
                                    std::vector<std::int64_t>& out) {
  run(in, out);
}

void NonRecursiveCic::process_block(std::span<const std::int32_t> in,
                                    std::vector<std::int64_t>& out) {
  run(in, out);
}

}  // namespace twiddc::dsp
