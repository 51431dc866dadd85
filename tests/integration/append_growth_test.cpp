// Appending to a caller-owned output vector must grow it geometrically.  An
// executor that reserves exactly size() + k before each append makes the
// vector reallocate on every call (or every tile), so a long stream into one
// vector copies quadratically.  Each case feeds 64 blocks into one vector and
// counts how often its storage moves: geometric growth from empty moves it
// about log2(outputs) times.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/backends/builtin.hpp"
#include "src/core/backend.hpp"
#include "src/core/channel_bank.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/plan_compiler.hpp"
#include "src/dsp/signal.hpp"

namespace twiddc {
namespace {

using core::ChainPlan;
using core::DdcConfig;
using core::IqSample;

constexpr int kBlocks = 64;
constexpr std::size_t kMaxMoves = 12;

/// Two outputs per block: enough that an exact-size reserve per call (or per
/// tile) moves the vector on every block.
std::vector<std::int64_t> block_for(const ChainPlan& plan) {
  const auto n = static_cast<std::size_t>(plan.total_decimation()) * 2;
  return dsp::quantize_signal(
      dsp::make_tone(plan.front_end.nco_freq_hz + 2.5e3, plan.input_rate_hz, n, 0.7),
      plan.front_end.input_bits);
}

ChainPlan figure1() {
  return ChainPlan::figure1(DdcConfig::reference(10.0e6), core::DatapathSpec::wide16());
}

/// Calls `feed(out)` kBlocks times; returns how often out.data() changed.
template <typename T, typename Feed>
std::size_t storage_moves(std::vector<T>& out, Feed&& feed) {
  std::size_t moves = 0;
  const T* data = out.data();
  for (int b = 0; b < kBlocks; ++b) {
    feed(out);
    if (out.data() != data) ++moves;
    data = out.data();
  }
  return moves;
}

TEST(AppendGrowth, DdcPipeline) {
  const ChainPlan plan = figure1();
  const auto block = block_for(plan);
  core::DdcPipeline pipe(plan);
  std::vector<IqSample> out;
  const std::size_t moves =
      storage_moves(out, [&](auto& o) { pipe.process_block(block, o); });
  EXPECT_EQ(out.size(), 2u * kBlocks);
  EXPECT_LE(moves, kMaxMoves);
}

TEST(AppendGrowth, FusedChainExec) {
  const ChainPlan plan = figure1();
  const auto block = block_for(plan);
  core::FusedChainExec exec(core::CompiledPlanCache::instance().get_or_compile(plan));
  std::vector<IqSample> out;
  const std::size_t moves =
      storage_moves(out, [&](auto& o) { exec.process_block(block, o); });
  EXPECT_EQ(out.size(), 2u * kBlocks);
  EXPECT_LE(moves, kMaxMoves);
}

TEST(AppendGrowth, ChannelBank) {
  ChainPlan detuned = figure1();
  detuned.front_end.nco_freq_hz += 40.0e3;
  core::ChannelBank bank({figure1(), detuned});
  const auto block = block_for(figure1());
  std::vector<std::vector<IqSample>> out;
  std::size_t moves[2] = {0, 0};
  const IqSample* data[2] = {nullptr, nullptr};
  for (int b = 0; b < kBlocks; ++b) {
    bank.process_block(block, out);
    for (std::size_t c = 0; c < 2; ++c) {
      if (out[c].data() != data[c]) ++moves[c];
      data[c] = out[c].data();
    }
  }
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(out[c].size(), 2u * kBlocks) << "channel " << c;
    EXPECT_LE(moves[c], kMaxMoves) << "channel " << c;
  }
}

TEST(AppendGrowth, EveryBuiltinBackend) {
  backends::register_builtin();
  for (const char* name : {backends::kNative, backends::kFixedDdc, backends::kFloatDdc,
                           backends::kGc4016, backends::kFpga, backends::kGpp,
                           backends::kMontium}) {
    auto backend = core::BackendRegistry::instance().create(name);
    const ChainPlan plan = backend->plan_for(DdcConfig::reference(10.0e6));
    backend->configure(plan);
    const auto block = block_for(plan);
    std::vector<IqSample> out;
    const std::size_t moves =
        storage_moves(out, [&](auto& o) { backend->process_block(block, o); });
    EXPECT_GE(out.size(), static_cast<std::size_t>(kBlocks)) << name;
    EXPECT_LE(moves, kMaxMoves) << name;
  }
}

}  // namespace
}  // namespace twiddc
