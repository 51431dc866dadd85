#include "src/dsp/fir.hpp"

#include <string>
#include <type_traits>

#include "src/common/error.hpp"
#include "src/common/simd.hpp"

namespace twiddc::dsp {
namespace {
void check_taps(std::size_t taps) {
  if (taps == 0) throw ConfigError("FIR: tap vector must not be empty");
}
void check_decimation(int d) {
  if (d < 1) throw ConfigError("FIR: decimation must be >= 1, got " + std::to_string(d));
}

template <typename T>
std::vector<T> reversed(const std::vector<T>& taps) {
  return {taps.rbegin(), taps.rend()};
}

bool fits_i32(const std::vector<std::int64_t>& v) {
  return simd::all_fit_i32(v.data(), v.size());
}

// Shared idiom of the integer ring-buffer block paths (FirFilter and
// FirDecimator): materialise [previous n-1 ring samples | block] as one
// contiguous window, and afterwards re-seat the ring from the window tail.

/// Fills `window` and returns whether every element fits int32 (combined
/// with the precomputed tap check, this gates the 32x32->64 SIMD multiply).
inline bool load_window(const std::vector<std::int64_t>& history, std::size_t head,
                        bool taps_fit, std::span<const std::int64_t> in,
                        std::vector<std::int64_t>& window) {
  const std::size_t n = history.size();
  window.clear();
  window.reserve(n - 1 + in.size());
  for (std::size_t j = 0; j + 1 < n; ++j) window.push_back(history[(head + 1 + j) % n]);
  window.insert(window.end(), in.begin(), in.end());
  return taps_fit && simd::all_fit_i32(window.data(), window.size());
}

/// Newest sample lands at slot n-1 with head = 0 -- any layout push() reads
/// back identically is equivalent state.
inline void reseat_ring(std::vector<std::int64_t>& history, std::size_t& head,
                        const std::vector<std::int64_t>& window) {
  const std::size_t n = history.size();
  for (std::size_t j = 0; j < n; ++j) history[j] = window[window.size() - n + j];
  head = 0;
}
}  // namespace

// ---------------------------------------------------------------- FirFilter

template <typename T>
FirFilter<T>::FirFilter(std::vector<T> taps) : taps_(std::move(taps)) {
  check_taps(taps_.size());
  history_.assign(taps_.size(), T{});
  if constexpr (std::is_integral_v<T>) {
    rev_taps_ = reversed(taps_);
    taps_fit_i32_ = fits_i32(taps_);
  }
}

template <typename T>
void FirFilter<T>::reset() {
  history_.assign(history_.size(), T{});
  head_ = 0;
}

template <typename T>
void FirFilter<T>::retap(std::vector<T> taps) {
  if (taps.size() != taps_.size())
    throw ConfigError("FirFilter::retap: expected " + std::to_string(taps_.size()) +
                      " taps, got " + std::to_string(taps.size()));
  taps_ = std::move(taps);
  if constexpr (std::is_integral_v<T>) {
    rev_taps_ = reversed(taps_);
    taps_fit_i32_ = fits_i32(taps_);
  }
}

template <typename T>
T FirFilter<T>::push(T x) {
  // head_ points at the slot for the newest sample.
  history_[head_] = x;
  T acc{};
  std::size_t idx = head_;
  for (std::size_t k = 0; k < taps_.size(); ++k) {
    acc += taps_[k] * history_[idx];
    idx = idx == 0 ? history_.size() - 1 : idx - 1;
  }
  head_ = head_ + 1 == history_.size() ? 0 : head_ + 1;
  return acc;
}

template <typename T>
void FirFilter<T>::process_block(std::span<const T> in, std::vector<T>& out) {
  if constexpr (std::is_integral_v<T>) {
    // Contiguous-window hot path: every output is a forward dot product of
    // the reversed taps against a sliding window -- unit-stride loads the
    // SIMD kernel can chew on.  Integer sums are order-independent, so this
    // is bit-exact with the ring-buffer push() loop.
    const std::size_t n = taps_.size();
    const std::size_t m = in.size();
    if (m == 0) return;
    const bool narrow_ok = load_window(history_, head_, taps_fit_i32_, in, window_);
    for (std::size_t i = 0; i < m; ++i)
      out.push_back(simd::dot_i64(rev_taps_.data(), window_.data() + i, n, narrow_ok));
    reseat_ring(history_, head_, window_);
  } else {
    for (T x : in) out.push_back(push(x));
  }
}

// ------------------------------------------------------------- FirDecimator

template <typename T>
FirDecimator<T>::FirDecimator(std::vector<T> taps, int decimation)
    : taps_(std::move(taps)), decimation_(decimation) {
  check_taps(taps_.size());
  check_decimation(decimation);
  history_.assign(taps_.size(), T{});
  if constexpr (std::is_integral_v<T>) {
    rev_taps_ = reversed(taps_);
    taps_fit_i32_ = fits_i32(taps_);
  }
}

template <typename T>
void FirDecimator<T>::reset() {
  history_.assign(history_.size(), T{});
  head_ = 0;
  phase_ = 0;
}

template <typename T>
void FirDecimator<T>::retap(std::vector<T> taps) {
  if (taps.size() != taps_.size())
    throw ConfigError("FirDecimator::retap: expected " + std::to_string(taps_.size()) +
                      " taps, got " + std::to_string(taps.size()));
  taps_ = std::move(taps);
  if constexpr (std::is_integral_v<T>) {
    rev_taps_ = reversed(taps_);
    taps_fit_i32_ = fits_i32(taps_);
  }
}

template <typename T>
std::optional<T> FirDecimator<T>::push(T x) {
  history_[head_] = x;
  const std::size_t newest = head_;
  head_ = head_ + 1 == history_.size() ? 0 : head_ + 1;
  if (++phase_ < decimation_) return std::nullopt;
  phase_ = 0;
  T acc{};
  std::size_t idx = newest;
  for (std::size_t k = 0; k < taps_.size(); ++k) {
    acc += taps_[k] * history_[idx];
    idx = idx == 0 ? history_.size() - 1 : idx - 1;
  }
  return acc;
}

template <typename T>
void FirDecimator<T>::process_block(std::span<const T> in, std::vector<T>& out) {
  const std::size_t n = history_.size();
  if constexpr (std::is_integral_v<T>) {
    // Same contiguous-window scheme as FirFilter, computing only the kept
    // outputs: input i produces one when phase_ + i + 1 is a multiple of D.
    const std::size_t m = in.size();
    if (m == 0) return;
    const bool narrow_ok = load_window(history_, head_, taps_fit_i32_, in, window_);
    const std::size_t d = static_cast<std::size_t>(decimation_);
    for (std::size_t i = d - 1 - static_cast<std::size_t>(phase_); i < m; i += d)
      out.push_back(simd::dot_i64(rev_taps_.data(), window_.data() + i, n, narrow_ok));
    phase_ = static_cast<int>((static_cast<std::size_t>(phase_) + m) % d);
    reseat_ring(history_, head_, window_);
  } else {
    for (T x : in) {
      history_[head_] = x;
      const std::size_t newest = head_;
      head_ = head_ + 1 == n ? 0 : head_ + 1;
      if (++phase_ < decimation_) continue;
      phase_ = 0;
      T acc{};
      std::size_t idx = newest;
      for (std::size_t k = 0; k < taps_.size(); ++k) {
        acc += taps_[k] * history_[idx];
        idx = idx == 0 ? n - 1 : idx - 1;
      }
      out.push_back(acc);
    }
  }
}

// ---------------------------------------------------- PolyphaseFirDecimator

template <typename T>
PolyphaseFirDecimator<T>::PolyphaseFirDecimator(std::vector<T> taps, int decimation)
    : decimation_(decimation), total_taps_(taps.size()) {
  check_taps(taps.size());
  check_decimation(decimation);
  if constexpr (std::is_integral_v<T>) {
    rev_taps_ = reversed(taps);
    taps_fit_i32_ = fits_i32(taps);
  }
  phases_.resize(static_cast<std::size_t>(decimation));
  for (std::size_t k = 0; k < taps.size(); ++k)
    phases_[k % static_cast<std::size_t>(decimation)].push_back(taps[k]);
  histories_.resize(phases_.size());
  heads_.assign(phases_.size(), 0);
  for (std::size_t p = 0; p < phases_.size(); ++p) {
    // Delay lines never shrink below one slot so empty subfilters stay benign.
    histories_[p].assign(std::max<std::size_t>(phases_[p].size(), 1), T{});
  }
}

template <typename T>
void PolyphaseFirDecimator<T>::retap(std::vector<T> taps) {
  if (taps.size() != total_taps_)
    throw ConfigError("PolyphaseFirDecimator::retap: expected " +
                      std::to_string(total_taps_) + " taps, got " +
                      std::to_string(taps.size()));
  for (auto& p : phases_) p.clear();
  for (std::size_t k = 0; k < taps.size(); ++k)
    phases_[k % static_cast<std::size_t>(decimation_)].push_back(taps[k]);
  if constexpr (std::is_integral_v<T>) {
    rev_taps_ = reversed(taps);
    taps_fit_i32_ = fits_i32(taps);
  }
}

template <typename T>
void PolyphaseFirDecimator<T>::reset() {
  for (std::size_t p = 0; p < histories_.size(); ++p) {
    histories_[p].assign(histories_[p].size(), T{});
    heads_[p] = 0;
  }
  rotor_ = 0;
}

template <typename T>
std::optional<T> PolyphaseFirDecimator<T>::push(T x) {
  // Sample with input-index residue r feeds subfilter p = D-1-r, so that the
  // revolution completes exactly when y[m] = sum_k h[k] x[mD + D-1 - k] is
  // computable (matching FirDecimator's output instants).
  const auto p = static_cast<std::size_t>(decimation_ - 1 - rotor_);
  auto& hist = histories_[p];
  auto& head = heads_[p];
  hist[head] = x;
  const std::size_t newest = head;
  head = head + 1 == hist.size() ? 0 : head + 1;

  if (++rotor_ < decimation_) return std::nullopt;
  rotor_ = 0;
  T acc{};
  for (std::size_t q = 0; q < phases_.size(); ++q) {
    const auto& e = phases_[q];
    const auto& h = histories_[q];
    // Newest element of phase q: for q == p it is `newest`; for the others it
    // is one behind their head pointer.
    std::size_t idx = q == p ? newest : (heads_[q] == 0 ? h.size() - 1 : heads_[q] - 1);
    for (std::size_t j = 0; j < e.size(); ++j) {
      acc += e[j] * h[idx];
      idx = idx == 0 ? h.size() - 1 : idx - 1;
    }
  }
  return acc;
}

template <typename T>
void PolyphaseFirDecimator<T>::process_block(std::span<const T> in, std::vector<T>& out) {
  if constexpr (std::is_integral_v<T>) {
    // The polyphase MAC set per output equals the direct form's, and integer
    // sums are order-independent, so each block output can be one contiguous
    // dot product.  The flat window's past samples are reconstructed from the
    // per-phase rings by walking the commutator backwards (sample at depth d
    // behind the newest lives in the ring of phase D-1-((r_last - d) mod D));
    // every window slot an output actually reads is backed by a live ring
    // entry because push() stores exactly the samples its MACs revisit.
    const std::size_t n = total_taps_;
    const std::size_t m = in.size();
    if (m == 0) return;
    const int d = decimation_;
    window_.assign(n - 1 + m, T{});
    if (n >= 2) {
      std::vector<std::size_t> cursor = heads_;
      int residue = (rotor_ + d - 1) % d;  // residue of the most recent sample
      for (std::size_t depth = 0; depth + 1 < n; ++depth) {
        const auto q = static_cast<std::size_t>(d - 1 - residue);
        auto& c = cursor[q];
        const auto& h = histories_[q];
        c = c == 0 ? h.size() - 1 : c - 1;
        window_[n - 2 - depth] = h[c];
        residue = residue == 0 ? d - 1 : residue - 1;
      }
    }
    std::copy(in.begin(), in.end(), window_.begin() + static_cast<std::ptrdiff_t>(n - 1));
    const bool narrow_ok =
        taps_fit_i32_ && simd::all_fit_i32(window_.data(), window_.size());
    // Commutator stores keep the per-phase rings state-exact for later
    // push() calls; the MACs run on the flat window instead.
    for (std::size_t i = 0; i < m; ++i) {
      const auto p = static_cast<std::size_t>(decimation_ - 1 - rotor_);
      auto& hist = histories_[p];
      auto& head = heads_[p];
      hist[head] = in[i];
      head = head + 1 == hist.size() ? 0 : head + 1;
      if (++rotor_ < decimation_) continue;
      rotor_ = 0;
      out.push_back(simd::dot_i64(rev_taps_.data(), window_.data() + i, n, narrow_ok));
    }
  } else {
    for (T x : in) {
      const auto p = static_cast<std::size_t>(decimation_ - 1 - rotor_);
      auto& hist = histories_[p];
      auto& head = heads_[p];
      hist[head] = x;
      const std::size_t newest = head;
      head = head + 1 == hist.size() ? 0 : head + 1;

      if (++rotor_ < decimation_) continue;
      rotor_ = 0;
      T acc{};
      for (std::size_t q = 0; q < phases_.size(); ++q) {
        const auto& e = phases_[q];
        const auto& h = histories_[q];
        std::size_t idx =
            q == p ? newest : (heads_[q] == 0 ? h.size() - 1 : heads_[q] - 1);
        for (std::size_t j = 0; j < e.size(); ++j) {
          acc += e[j] * h[idx];
          idx = idx == 0 ? h.size() - 1 : idx - 1;
        }
      }
      out.push_back(acc);
    }
  }
}

template class FirFilter<double>;
template class FirFilter<std::int64_t>;
template class FirDecimator<double>;
template class FirDecimator<std::int64_t>;
template class PolyphaseFirDecimator<double>;
template class PolyphaseFirDecimator<std::int64_t>;

}  // namespace twiddc::dsp
