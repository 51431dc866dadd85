// Bit-exactness against the pre-pipeline (seed) implementation: the golden
// vectors in golden_fixed_ddc.inc were produced by the original hand-wired
// FixedDdc/FloatDdc/Gc4016 before the stage-pipeline refactor.  The
// pipeline-backed rebuild must reproduce them to the last bit, in both the
// per-sample push() path and the block hot path, and so must FusedChainExec,
// the executor that serves native sessions, on the plans FixedDdc runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/asic/gc4016.hpp"
#include "src/core/fixed_ddc.hpp"
#include "src/core/float_ddc.hpp"
#include "src/core/plan_compiler.hpp"
#include "src/dsp/signal.hpp"
#include "golden_fixed_ddc.inc"

namespace twiddc::core {
namespace {

constexpr std::size_t kFrames = 40;

std::vector<std::int64_t> golden_stimulus() {
  const auto cfg = DdcConfig::reference(10.0e6);
  const auto analog = dsp::make_tone(10.0025e6, cfg.input_rate_hz, 2688 * kFrames, 0.7);
  return dsp::quantize_signal(analog, 12);
}

template <std::size_t N>
void expect_matches(const std::vector<IqSample>& out, const golden::GoldenIq (&want)[N]) {
  ASSERT_EQ(out.size(), N);
  for (std::size_t i = 0; i < N; ++i) {
    EXPECT_EQ(out[i].i, want[i].i) << "I sample " << i;
    EXPECT_EQ(out[i].q, want[i].q) << "Q sample " << i;
  }
}

TEST(GoldenBitExactTest, FixedWide16BlockPath) {
  FixedDdc ddc(DdcConfig::reference(10.0e6), DatapathSpec::wide16());
  expect_matches(ddc.process(golden_stimulus()), golden::kFixedWide16);
}

TEST(GoldenBitExactTest, FixedWide16PushPath) {
  FixedDdc ddc(DdcConfig::reference(10.0e6), DatapathSpec::wide16());
  std::vector<IqSample> out;
  for (std::int64_t x : golden_stimulus()) {
    if (auto y = ddc.push(x)) out.push_back(*y);
  }
  expect_matches(out, golden::kFixedWide16);
}

TEST(GoldenBitExactTest, FixedFpgaBlockPath) {
  FixedDdc ddc(DdcConfig::reference(10.0e6), DatapathSpec::fpga());
  expect_matches(ddc.process(golden_stimulus()), golden::kFixedFpga);
}

/// FusedChainExec on the plan FixedDdc builds for `spec`, fed in uneven
/// blocks so tiles and block seams fall mid-frame.  Both paper datapaths
/// take the int32 mixer and the non-recursive CIC2.
std::vector<IqSample> fused_outputs(const DatapathSpec& spec) {
  const FixedDdc ddc(DdcConfig::reference(10.0e6), spec);
  FusedChainExec exec(CompiledPlanCache::instance().get_or_compile(ddc.pipeline().plan()));
  EXPECT_TRUE(exec.compiled().int32_mixer());
  EXPECT_TRUE(exec.compiled().non_recursive(0));
  const auto in = golden_stimulus();
  std::vector<IqSample> out;
  for (std::size_t off = 0; off < in.size(); off += 5000)
    exec.process_block(std::span(in).subspan(off, std::min<std::size_t>(5000, in.size() - off)),
                       out);
  return out;
}

TEST(GoldenBitExactTest, FusedChainExecWide16) {
  expect_matches(fused_outputs(DatapathSpec::wide16()), golden::kFixedWide16);
}

TEST(GoldenBitExactTest, FusedChainExecFpga) {
  // fpga's CIC2 register is 20 bits and its mixer product 23.
  expect_matches(fused_outputs(DatapathSpec::fpga()), golden::kFixedFpga);
}

TEST(GoldenBitExactTest, FloatReference) {
  FloatDdc ddc(DdcConfig::reference(10.0e6));
  const auto out = ddc.process(dsp::dequantize_signal(golden_stimulus(), 12));
  constexpr std::size_t n = std::size(golden::kFloatReference);
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    // Exact double equality: the float rails must do the identical FP ops.
    EXPECT_EQ(out[i].real(), golden::kFloatReference[i].real()) << "sample " << i;
    EXPECT_EQ(out[i].imag(), golden::kFloatReference[i].imag()) << "sample " << i;
  }
}

TEST(GoldenBitExactTest, Gc4016GsmChannel) {
  const auto gcfg = twiddc::asic::Gc4016Config::gsm_example();
  twiddc::asic::Gc4016 chip(gcfg);
  const int total = chip.channel(0).total_decimation();
  const auto analog = dsp::make_tone(15.0025e6, gcfg.input_rate_hz,
                                     static_cast<std::size_t>(total) * 24, 0.7);
  const auto digital = dsp::quantize_signal(analog, gcfg.input_bits);
  std::vector<IqSample> out;
  for (std::int64_t x : digital)
    for (const auto& y : chip.push(x)) out.push_back(IqSample{y.i, y.q});
  expect_matches(out, golden::kGc4016Gsm);
}

TEST(GoldenBitExactTest, Gc4016ChannelBlockPathMatchesGolden) {
  const auto gcfg = twiddc::asic::Gc4016Config::gsm_example();
  twiddc::asic::Gc4016 chip(gcfg);
  const int total = chip.channel(0).total_decimation();
  const auto analog = dsp::make_tone(15.0025e6, gcfg.input_rate_hz,
                                     static_cast<std::size_t>(total) * 24, 0.7);
  const auto digital = dsp::quantize_signal(analog, gcfg.input_bits);
  std::vector<twiddc::asic::Gc4016Output> out;
  chip.channel(0).process_block(digital, out);
  ASSERT_EQ(out.size(), std::size(golden::kGc4016Gsm));
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].i, golden::kGc4016Gsm[i].i) << "I sample " << i;
    EXPECT_EQ(out[i].q, golden::kGc4016Gsm[i].q) << "Q sample " << i;
  }
}

}  // namespace
}  // namespace twiddc::core
