#include "src/common/metrics.hpp"

#include <algorithm>

namespace twiddc::metrics {

namespace {

unsigned bit_width_u64(std::uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  return v == 0 ? 0 : 64u - static_cast<unsigned>(__builtin_clzll(v));
#else
  unsigned b = 0;
  while (v >> b) ++b;
  return b;
#endif
}

}  // namespace

unsigned HistogramLayout::bucket_index(std::uint64_t v) {
  if (v < kUnitBuckets) return static_cast<unsigned>(v);
  const unsigned b = bit_width_u64(v);  // >= kSubBits + 2 here
  const unsigned octave = b - (kSubBits + 1);
  const unsigned sub =
      static_cast<unsigned>(v >> (b - 1 - kSubBits)) & (kSub - 1);
  return kUnitBuckets + (octave - 1) * kSub + sub;
}

std::uint64_t HistogramLayout::bucket_upper(unsigned idx) {
  if (idx < kUnitBuckets) return idx;
  const unsigned rel = idx - kUnitBuckets;
  const unsigned octave = rel / kSub + 1;
  const unsigned sub = rel % kSub;
  const unsigned b = octave + kSubBits + 1;  // bit width of values in bucket
  const std::uint64_t width = std::uint64_t{1} << (b - 1 - kSubBits);
  const std::uint64_t lower = (std::uint64_t{1} << (b - 1)) + sub * width;
  return lower + width - 1;
}

void HistogramSnapshot::add(const HistogramSnapshot& other) {
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
}

std::uint64_t HistogramSnapshot::quantile(double p) const {
  if (count == 0) return 0;
  p = std::min(1.0, std::max(0.0, p));
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(p * static_cast<double>(count) + 0.5));
  std::uint64_t cum = 0;
  for (unsigned i = 0; i < HistogramLayout::kBucketCount; ++i) {
    cum += buckets[i];
    if (cum >= target)
      return std::min(HistogramLayout::bucket_upper(i), max);
  }
  return max;
}

JsonLine HistogramSnapshot::to_json(double scale) const {
  JsonLine line;
  line.field("count", static_cast<std::size_t>(count))
      .field("mean", mean() * scale)
      .field("p50", static_cast<double>(quantile(0.50)) * scale)
      .field("p90", static_cast<double>(quantile(0.90)) * scale)
      .field("p99", static_cast<double>(quantile(0.99)) * scale)
      .field("max", static_cast<double>(max) * scale);
  return line;
}

void Histogram::record(std::uint64_t v) {
  buckets_[HistogramLayout::bucket_index(v)].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::uint64_t seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  // Relaxed per-field reads: concurrent record()s may straddle the copy,
  // so count/sum/max can disagree by the in-flight samples -- acceptable
  // for a stats surface; each field alone is never torn.
  HistogramSnapshot snap;
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace twiddc::metrics
