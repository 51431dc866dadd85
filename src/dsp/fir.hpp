// twiddc::dsp -- FIR filtering: full-rate, decimating, and polyphase
// decimating forms (paper section 2.1, Fig. 3).
//
// All three forms are provided because the paper contrasts them: a "normal"
// FIR computes every input sample and throws 7 of 8 results away; the
// decimating form computes only every D-th output; the polyphase form
// additionally splits the tap set into D subfilters fed by a commutator.
// The three are arithmetically identical -- a property the test suite checks
// exhaustively -- but differ in multiply count, which is what makes the
// 125-tap filter affordable at 192 kHz on every architecture in the paper.
//
// Instantiated for `double` (float golden chain) and `std::int64_t` (all
// fixed-point datapaths; the caller owns scaling and narrowing).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace twiddc::dsp {

/// Full-rate direct-form FIR.
template <typename T>
class FirFilter {
 public:
  explicit FirFilter(std::vector<T> taps);

  /// Pushes one sample, returns one output: y[n] = sum_k h[k] x[n-k].
  T push(T x);

  /// Block hot path: one output per input, appended to `out`.
  void process_block(std::span<const T> in, std::vector<T>& out);

  void reset();
  /// Replaces the coefficient set while keeping the delay line (runtime
  /// reconfiguration).  The new set must have the same length; ConfigError
  /// otherwise.
  void retap(std::vector<T> taps);
  [[nodiscard]] const std::vector<T>& taps() const { return taps_; }
  /// Multiplications performed per input sample.
  [[nodiscard]] std::size_t macs_per_input() const { return taps_.size(); }

 private:
  std::vector<T> taps_;
  std::vector<T> history_;  // ring buffer
  std::size_t head_ = 0;
  // Integer block path: reversed taps + contiguous window scratch feeding the
  // SIMD dot-product kernel (see fir.cpp); unused for floating-point T.
  std::vector<T> rev_taps_;
  std::vector<T> window_;
  bool taps_fit_i32_ = false;
};

/// Direct-form decimating FIR: identical output to FirFilter + keep-1-in-D,
/// but only computes the kept outputs.
template <typename T>
class FirDecimator {
 public:
  FirDecimator(std::vector<T> taps, int decimation);

  /// Pushes one sample; produces an output on every D-th input.
  std::optional<T> push(T x);

  /// Block hot path: appends one output per D inputs to `out`; bit-exact
  /// with a push() loop but skips the per-sample optional.
  void process_block(std::span<const T> in, std::vector<T>& out);

  void reset();
  /// Replaces the coefficient set while keeping the delay line and phase
  /// (runtime reconfiguration).  Same length required; ConfigError otherwise.
  void retap(std::vector<T> taps);
  [[nodiscard]] const std::vector<T>& taps() const { return taps_; }
  [[nodiscard]] int decimation() const { return decimation_; }
  /// Multiplications per *output* sample.
  [[nodiscard]] std::size_t macs_per_output() const { return taps_.size(); }

 private:
  std::vector<T> taps_;
  std::vector<T> history_;
  std::size_t head_ = 0;
  int phase_ = 0;
  int decimation_ = 1;
  // Integer block path scratch (see FirFilter).
  std::vector<T> rev_taps_;
  std::vector<T> window_;
  bool taps_fit_i32_ = false;
};

/// Polyphase decimating FIR: the taps are decomposed into D subfilters
/// e_p[j] = h[jD + p]; an input commutator routes each incoming sample to
/// exactly one subfilter, and an output is formed after each commutator
/// revolution.  Work per input sample is ~taps/D multiplies -- the structure
/// of the paper's Figure 3 and of the FPGA implementation's Figure 5.
template <typename T>
class PolyphaseFirDecimator {
 public:
  PolyphaseFirDecimator(std::vector<T> taps, int decimation);

  /// Pushes one sample; produces an output on every D-th input.
  std::optional<T> push(T x);

  /// Block hot path: appends one output per D inputs to `out`; bit-exact
  /// with a push() loop but skips the per-sample optional.
  void process_block(std::span<const T> in, std::vector<T>& out);

  void reset();
  /// Replaces the coefficient set while keeping every subfilter delay line
  /// and the commutator position (runtime reconfiguration).  Same total
  /// length required; ConfigError otherwise.
  void retap(std::vector<T> taps);
  [[nodiscard]] int decimation() const { return decimation_; }
  [[nodiscard]] const std::vector<std::vector<T>>& phase_taps() const { return phases_; }
  /// Multiplications per output sample (== total taps).
  [[nodiscard]] std::size_t macs_per_output() const { return total_taps_; }
  /// The subfilter index the *next* pushed sample will be routed to
  /// (exposed so the Figure 3 bench can trace the commutator).
  [[nodiscard]] int next_phase() const { return decimation_ - 1 - rotor_; }

 private:
  std::vector<std::vector<T>> phases_;     // phase p -> e_p[j]
  std::vector<std::vector<T>> histories_;  // phase p -> its delay line (ring)
  std::vector<std::size_t> heads_;
  int rotor_ = 0;  // residue of the next input sample index mod D
  int decimation_ = 1;
  std::size_t total_taps_ = 0;
  // Integer block path: the polyphase MAC set equals the direct form's, and
  // integer sums are order-independent, so the block path computes each
  // output as one contiguous dot product over a reconstructed flat window
  // while the per-phase rings keep tracking state for push().
  std::vector<T> rev_taps_;
  std::vector<T> window_;
  bool taps_fit_i32_ = false;
};

extern template class FirFilter<double>;
extern template class FirFilter<std::int64_t>;
extern template class FirDecimator<double>;
extern template class FirDecimator<std::int64_t>;
extern template class PolyphaseFirDecimator<double>;
extern template class PolyphaseFirDecimator<std::int64_t>;

}  // namespace twiddc::dsp
