// The three kernel tiers as the bit-exact suites select them, through the
// kill switch and the AVX-512 cap.  A tier the host lacks runs the next tier
// down, so on an AVX2-only host "avx512" runs the AVX2 tier.
#pragma once

#include "src/common/simd.hpp"

namespace twiddc::test {

/// One kernel tier, selected by the kill switch and the AVX-512 cap.
struct Tier {
  bool simd;
  bool avx512;
  const char* name;
};
inline constexpr Tier kTiers[] = {
    {true, true, "avx512"}, {true, false, "avx2"}, {false, false, "scalar"}};

/// Forces `tier` within a scope.
class ScopedTier {
 public:
  explicit ScopedTier(const Tier& tier) : simd_(tier.simd), avx512_(tier.avx512) {}

 private:
  simd::ScopedEnable simd_;
  simd::ScopedAvx512 avx512_;
};

}  // namespace twiddc::test
