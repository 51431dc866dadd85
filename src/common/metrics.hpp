// twiddc::metrics -- log-bucketed latency histograms, rendered to JSON
// through common/json.hpp.  StreamEngine::stats_json()'s "latency" block
// and the throughput bench's overload line report through them.
//
// record() is lock-free; counts are exact (fetch_add), only *quantiles*
// are approximate (log-linear buckets, 8 linear sub-buckets per octave =>
// a reported quantile is the bucket upper bound, at most ~12.5% above the
// true value).  Safe to hammer from many threads concurrently -- the TSan
// test asserts exactness.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "src/common/json.hpp"

namespace twiddc::metrics {

/// Log-linear histogram bucket layout, shared by Histogram and its
/// snapshots.  Values 0..15 land in exact unit buckets; above that each
/// power-of-two octave splits into 8 linear sub-buckets.  64-bit values
/// fit: (64 - 4) octaves * 8 + 16 = 496 buckets.
struct HistogramLayout {
  static constexpr unsigned kSubBits = 3;  // 8 sub-buckets per octave
  static constexpr unsigned kSub = 1u << kSubBits;
  static constexpr unsigned kUnitBuckets = kSub * 2;  // exact: 0..15
  static constexpr unsigned kBucketCount =
      kUnitBuckets + (64 - (kSubBits + 1)) * kSub;  // 496

  static unsigned bucket_index(std::uint64_t v);
  /// Inclusive upper bound of a bucket: the value a quantile reports.
  static std::uint64_t bucket_upper(unsigned idx);
};

/// Immutable copy of a histogram, mergeable across instances (the pooling
/// primitive for "p99 over these sessions").
struct HistogramSnapshot {
  std::array<std::uint64_t, HistogramLayout::kBucketCount> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  void add(const HistogramSnapshot& other);
  /// p in [0,1]; reports the upper bound of the bucket where the
  /// cumulative count first reaches p * count.  0 when empty.
  [[nodiscard]] std::uint64_t quantile(double p) const;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Renders {"count", "mean", "p50", "p90", "p99", "max"} scaled by
  /// `scale` (e.g. 1e-3 to report microsecond samples in milliseconds).
  [[nodiscard]] JsonLine to_json(double scale = 1.0) const;
};

/// Concurrent log-bucketed histogram.  record() is three relaxed fetch_adds,
/// one CAS-loop max update, and the bucket index math.
class Histogram {
 public:
  void record(std::uint64_t v);
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] std::uint64_t quantile(double p) const {
    return snapshot().quantile(p);
  }
  [[nodiscard]] JsonLine to_json(double scale = 1.0) const {
    return snapshot().to_json(scale);
  }

 private:
  std::array<std::atomic<std::uint64_t>, HistogramLayout::kBucketCount>
      buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace twiddc::metrics
