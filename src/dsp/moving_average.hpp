// twiddc::dsp -- cascaded moving-average decimator.
//
// Mathematically identical to an N-stage CIC decimator (each
// integrator+comb+decimate section is a boxcar sum of R samples), but
// numerically stable in floating point because no unbounded accumulator
// exists.  The float golden chain uses this; the equivalence
// CicDecimator == MovingAverageCascade over integers is a library invariant
// checked by the test suite.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "src/common/error.hpp"

namespace twiddc::dsp {

template <typename T>
class MovingAverageCascade {
 public:
  /// `stages` boxcar sections of length `decimation`, decimating once at the
  /// end.  Gain is decimation^stages (not normalised), matching CicDecimator.
  MovingAverageCascade(int stages, int decimation) : decimation_(decimation) {
    if (stages < 1 || stages > 8)
      throw ConfigError("MovingAverageCascade: stages must be in [1,8]");
    if (decimation < 1)
      throw ConfigError("MovingAverageCascade: decimation must be >= 1");
    rings_.assign(static_cast<std::size_t>(stages),
                  std::vector<T>(static_cast<std::size_t>(decimation), T{}));
    sums_.assign(static_cast<std::size_t>(stages), T{});
    heads_.assign(static_cast<std::size_t>(stages), 0);
  }

  /// Pushes a sample at the input rate; emits every `decimation` inputs.
  std::optional<T> push(T x) {
    T v = x;
    for (std::size_t s = 0; s < rings_.size(); ++s) {
      auto& ring = rings_[s];
      auto& head = heads_[s];
      sums_[s] += v - ring[head];
      ring[head] = v;
      head = head + 1 == ring.size() ? 0 : head + 1;
      v = sums_[s];
    }
    if (++count_ < decimation_) return std::nullopt;
    count_ = 0;
    if constexpr (std::is_floating_point_v<T>) {
      // Periodically re-derive the running sums from the rings to cancel
      // floating-point drift in long streams.
      if (++outputs_since_refresh_ >= 4096) {
        outputs_since_refresh_ = 0;
        for (std::size_t s = 0; s < rings_.size(); ++s) {
          T exact{};
          for (T e : rings_[s]) exact += e;
          sums_[s] = exact;
        }
      }
    }
    return v;
  }

  /// Block hot path: appends one output per `decimation` inputs to `out`.
  /// Performs exactly push()'s operations in exactly push()'s order --
  /// including the periodic float-drift refresh on the same output schedule
  /// -- so it is bit-exact with sample-by-sample use, but never materialises
  /// a per-sample std::optional and keeps the ring cursors in locals.
  void process_block(std::span<const T> in, std::vector<T>& out) {
    const std::size_t stages = rings_.size();
    int count = count_;
    for (T x : in) {
      T v = x;
      for (std::size_t s = 0; s < stages; ++s) {
        auto& ring = rings_[s];
        auto& head = heads_[s];
        sums_[s] += v - ring[head];
        ring[head] = v;
        head = head + 1 == ring.size() ? 0 : head + 1;
        v = sums_[s];
      }
      if (++count < decimation_) continue;
      count = 0;
      if constexpr (std::is_floating_point_v<T>) {
        if (++outputs_since_refresh_ >= 4096) {
          outputs_since_refresh_ = 0;
          for (std::size_t s = 0; s < stages; ++s) {
            T exact{};
            for (T e : rings_[s]) exact += e;
            sums_[s] = exact;
          }
        }
      }
      out.push_back(v);
    }
    count_ = count;
  }

  void reset() {
    for (auto& ring : rings_) ring.assign(ring.size(), T{});
    sums_.assign(sums_.size(), T{});
    heads_.assign(heads_.size(), 0);
    count_ = 0;
    outputs_since_refresh_ = 0;
  }

  [[nodiscard]] int decimation() const { return decimation_; }
  [[nodiscard]] int stages() const { return static_cast<int>(rings_.size()); }

 private:
  std::vector<std::vector<T>> rings_;
  std::vector<T> sums_;
  std::vector<std::size_t> heads_;
  int decimation_ = 1;
  int count_ = 0;
  int outputs_since_refresh_ = 0;
};

}  // namespace twiddc::dsp
