// The latency histograms: log-linear bucket boundaries, exact counts under
// concurrent hammering (the TSan leg runs this too), quantile ordering,
// snapshot merging and JSON scaling.
#include "src/common/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

namespace twiddc::metrics {
namespace {

TEST(Metrics, BucketIndexUnitRangeIsExact) {
  // 0..15 land in their own buckets: small values (queue depths, retry
  // counts) are reported exactly, not bucketed.
  for (std::uint64_t v = 0; v < HistogramLayout::kUnitBuckets; ++v) {
    EXPECT_EQ(HistogramLayout::bucket_index(v), v);
    EXPECT_EQ(HistogramLayout::bucket_upper(static_cast<unsigned>(v)), v);
  }
}

TEST(Metrics, BucketUpperIsTightInverseOfBucketIndex) {
  // For every bucket: its upper bound maps back into it, and upper+1 maps
  // past it -- the boundary contract the quantile report relies on.
  for (unsigned idx = 0; idx < HistogramLayout::kBucketCount; ++idx) {
    const std::uint64_t upper = HistogramLayout::bucket_upper(idx);
    EXPECT_EQ(HistogramLayout::bucket_index(upper), idx) << "idx=" << idx;
    if (upper < std::numeric_limits<std::uint64_t>::max()) {
      EXPECT_EQ(HistogramLayout::bucket_index(upper + 1), idx + 1)
          << "idx=" << idx;
    }
  }
  EXPECT_EQ(
      HistogramLayout::bucket_index(std::numeric_limits<std::uint64_t>::max()),
      HistogramLayout::kBucketCount - 1);
}

TEST(Metrics, BucketIndexIsMonotonic) {
  // Probe around every power of two (in value order): the index never
  // decreases with the value.
  std::vector<std::uint64_t> probes;
  for (unsigned b = 0; b < 64; ++b) {
    const std::uint64_t p = std::uint64_t{1} << b;
    if (p > 1) probes.push_back(p - 1);
    probes.push_back(p);
    if (p < std::numeric_limits<std::uint64_t>::max()) probes.push_back(p + 1);
  }
  std::sort(probes.begin(), probes.end());
  unsigned prev = 0;
  for (const std::uint64_t v : probes) {
    const unsigned idx = HistogramLayout::bucket_index(v);
    EXPECT_GE(idx, prev) << "v=" << v;
    EXPECT_LT(idx, HistogramLayout::kBucketCount);
    prev = idx;
  }
}

TEST(Metrics, HistogramCountSumMaxAreExact) {
  Histogram h;
  std::uint64_t sum = 0;
  for (std::uint64_t v = 0; v < 1000; ++v) {
    h.record(v * 17);
    sum += v * 17;
  }
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.max, 999u * 17u);
  EXPECT_DOUBLE_EQ(snap.mean(), static_cast<double>(sum) / 1000.0);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 1000u);
}

TEST(Metrics, QuantilesAreOrderedAndBounded) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.record(v);
  const HistogramSnapshot snap = h.snapshot();
  const std::uint64_t p50 = snap.quantile(0.50);
  const std::uint64_t p90 = snap.quantile(0.90);
  const std::uint64_t p99 = snap.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, snap.max);
  // Bucket upper bounds overshoot by at most one sub-bucket (~12.5%).
  EXPECT_GE(p50, 5000u);
  EXPECT_LE(p50, 5000u + 5000u / 8u + 1u);
  EXPECT_GE(p99, 9900u);
  EXPECT_LE(p99, 9900u + 9900u / 8u + 1u);
  // Degenerate inputs.
  EXPECT_EQ(HistogramSnapshot{}.quantile(0.5), 0u);
  Histogram one;
  one.record(7);
  EXPECT_EQ(one.quantile(0.0), 7u);
  EXPECT_EQ(one.quantile(1.0), 7u);
}

TEST(Metrics, SnapshotMergePoolsDistributions) {
  Histogram a;
  Histogram b;
  for (std::uint64_t v = 0; v < 100; ++v) a.record(10);
  for (std::uint64_t v = 0; v < 100; ++v) b.record(1000);
  HistogramSnapshot pool = a.snapshot();
  pool.add(b.snapshot());
  EXPECT_EQ(pool.count, 200u);
  EXPECT_EQ(pool.sum, 100u * 10u + 100u * 1000u);
  EXPECT_EQ(pool.max, 1000u);
  EXPECT_EQ(pool.quantile(0.25), 10u);
  EXPECT_GE(pool.quantile(0.75), 1000u);
}

TEST(Metrics, ConcurrentRecordsAreExact) {
  // The lock-free claim: N threads x M records lose nothing.  The TSan CI
  // leg runs this test to certify the atomics, not just the arithmetic.
  Histogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        h.record(static_cast<std::uint64_t>(t) * 1000 + (i % 100));
    });
  }
  for (auto& th : threads) th.join();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
  EXPECT_EQ(snap.max, 7099u);  // t=7, i%100=99
}

TEST(Metrics, HistogramJsonScalesValues) {
  Histogram h;
  h.record(2'000'000);  // e.g. 2 ms in ns
  const std::string json = h.to_json(1e-6).str();
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  // max lands in a log bucket; scaled it must read ~2 (ms), not 2e6.
  EXPECT_EQ(json.find("2000000"), std::string::npos);
}

}  // namespace
}  // namespace twiddc::metrics
