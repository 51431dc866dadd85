// DaFirEngine: the bit-serial distributed-arithmetic dot must be bit-exact
// (mod 2^64) with the MAC dot product whenever the window fits the engine's
// input width, across odd tap counts (partial final slice), every supported
// width, and negative samples (the sign-bit weight).  fits() bounds the
// range over which that holds; the cost model feeds the energy layer, so
// this suite is the proof that the DA datapath it prices computes MAC's
// outputs.
#include "src/dsp/da_fir.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/simd.hpp"

namespace twiddc::dsp {
namespace {

DaFirEngine make_engine(const std::vector<std::int64_t>& rev_taps, int bits) {
  auto tables = std::make_shared<const std::vector<std::int64_t>>(
      DaFirEngine::build_tables(rev_taps));
  return DaFirEngine(tables, rev_taps.size(), bits);
}

std::vector<std::int64_t> random_taps(Rng& rng, std::size_t n) {
  std::vector<std::int64_t> taps(n);
  for (auto& t : taps) t = rng.uniform_int(-32768, 32767);
  return taps;
}

std::vector<std::int64_t> random_window(Rng& rng, std::size_t n, int bits) {
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
  std::vector<std::int64_t> win(n);
  for (auto& x : win) x = rng.uniform_int(lo, hi);
  return win;
}

TEST(DaFirEngine, DotMatchesMacAcrossTapCountsAndWidths) {
  Rng rng(0xda);
  // Odd counts cover the partial final slice (K % 4 != 0); 125 is the
  // paper's polyphase tail.
  for (const std::size_t ntaps : {1u, 3u, 4u, 5u, 7u, 16u, 21u, 125u}) {
    for (const int bits : {1, 2, 8, 12, 16, 24}) {
      const auto taps = random_taps(rng, ntaps);
      const DaFirEngine engine = make_engine(taps, bits);
      for (int trial = 0; trial < 8; ++trial) {
        const auto win = random_window(rng, ntaps, bits);
        std::int64_t lo;
        std::int64_t hi;
        simd::minmax_i64(win.data(), win.size(), lo, hi);
        ASSERT_TRUE(engine.fits(lo, hi)) << "ntaps " << ntaps << " bits " << bits;
        EXPECT_EQ(engine.dot(win.data()),
                  simd::dot_i64_scalar(taps.data(), win.data(), ntaps))
            << "ntaps " << ntaps << " bits " << bits << " trial " << trial;
      }
    }
  }
}

TEST(DaFirEngine, SignBitCarriesExactNegativeWeight) {
  // The width-boundary samples are where the -2^W sign correction must be
  // exact: full-scale negative, full-scale positive, and -1 (all bits set).
  const std::vector<std::int64_t> taps = {7, -3, 11, -13, 5};
  for (const int bits : {4, 12, 16}) {
    const DaFirEngine engine = make_engine(taps, bits);
    const std::int64_t min = -(std::int64_t{1} << (bits - 1));
    const std::int64_t max = (std::int64_t{1} << (bits - 1)) - 1;
    const std::vector<std::int64_t> win = {min, max, -1, 0, min};
    EXPECT_TRUE(engine.fits(min, max));
    EXPECT_EQ(engine.dot(win.data()),
              simd::dot_i64_scalar(taps.data(), win.data(), taps.size()))
        << "bits " << bits;
  }
}

TEST(DaFirEngine, FitsRejectsOutOfRangeSamples) {
  const DaFirEngine engine = make_engine({1, 2, 3}, 12);
  EXPECT_TRUE(engine.fits(-2048, 2047));
  EXPECT_FALSE(engine.fits(-2049, 0));
  EXPECT_FALSE(engine.fits(0, 2048));
}

TEST(DaFirEngine, TablesCoverPartialFinalSlice) {
  // 6 taps -> 2 slices; the second slice's missing taps must read as zero,
  // so addresses touching only the phantom taps return 0.
  const std::vector<std::int64_t> taps = {10, 20, 30, 40, 50, 60};
  const auto tables = DaFirEngine::build_tables(taps);
  ASSERT_EQ(tables.size(), 2u * DaFirEngine::kTableEntries);
  EXPECT_EQ(tables[0], 0);                    // slice 0, address 0
  EXPECT_EQ(tables[1], 10);                   // slice 0, bit 0 -> taps[0]
  EXPECT_EQ(tables[15], 10 + 20 + 30 + 40);   // slice 0, all four
  EXPECT_EQ(tables[16 + 3], 50 + 60);         // slice 1, both real taps
  EXPECT_EQ(tables[16 + 4], 0);               // slice 1, phantom tap only
  EXPECT_EQ(tables[16 + 12], 0);              // slice 1, both phantoms
}

TEST(DaFirEngine, ConstructorValidates) {
  const std::vector<std::int64_t> taps = {1, 2, 3, 4, 5};
  auto tables = std::make_shared<const std::vector<std::int64_t>>(
      DaFirEngine::build_tables(taps));
  EXPECT_NO_THROW(DaFirEngine(tables, taps.size(), 16));
  EXPECT_THROW(DaFirEngine(tables, 0, 16), twiddc::ConfigError);
  EXPECT_THROW(DaFirEngine(tables, taps.size(), 0), twiddc::ConfigError);
  EXPECT_THROW(DaFirEngine(tables, taps.size(), 64), twiddc::ConfigError);
  EXPECT_THROW(DaFirEngine(tables, 9, 16), twiddc::ConfigError);  // size mismatch
  EXPECT_THROW(DaFirEngine(nullptr, taps.size(), 16), twiddc::ConfigError);
}

TEST(DaFirEngine, CostModelBoundsEligibilityAndCounts) {
  const auto c16 = DaFirEngine::cost(125, 16);
  EXPECT_TRUE(c16.eligible);
  EXPECT_EQ(c16.slices, 32u);           // ceil(125 / 4)
  EXPECT_EQ(c16.table_entries, 512u);   // 16 * 32
  EXPECT_EQ(c16.lookups_per_output, 16u * 32u);
  EXPECT_EQ(c16.macs_per_output, 125u);

  const auto c3 = DaFirEngine::cost(16, 3);
  EXPECT_TRUE(c3.eligible);
  EXPECT_EQ(c3.lookups_per_output, 3u * 4u);

  EXPECT_FALSE(DaFirEngine::cost(0, 16).eligible);
  EXPECT_FALSE(DaFirEngine::cost(125, 0).eligible);
  EXPECT_FALSE(DaFirEngine::cost(125, DaFirEngine::kMaxInputBits + 1).eligible);
  EXPECT_TRUE(DaFirEngine::cost(125, DaFirEngine::kMaxInputBits).eligible);
}

}  // namespace
}  // namespace twiddc::dsp
