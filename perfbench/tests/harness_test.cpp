// Self-tests of the benchmark harness: the percentile rule, the record log
// and the source's stamps, the output checker and the timing decorator.
#include <gtest/gtest.h>

#include <numeric>

#include "harness.hpp"
#include "src/backends/builtin.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/fault_injector.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBlock = 4096;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

core::ChainPlan figure1() {
  return core::ChainPlan::figure1(core::DdcConfig::reference(10.0e6),
                                  core::DatapathSpec::wide16());
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(ramp(100), 50.0), 50.0);
  EXPECT_EQ(percentile(ramp(100), 99.0), 99.0);
  EXPECT_EQ(percentile(ramp(3), 50.0), 2.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, TailNeedsTenSamplesBeyondItsRank) {
  const Tail full = tail_percentile(ramp(1000), 99.0);
  EXPECT_EQ(full.percentile, 99.0);  // rank 990, 10 beyond
  EXPECT_EQ(full.value, 990.0);
  EXPECT_EQ(full.samples, 1000u);

  const Tail short_by_one = tail_percentile(ramp(999), 99.0);
  EXPECT_EQ(short_by_one.percentile, 98.0);  // p99 would leave 9 beyond
  EXPECT_EQ(short_by_one.value, 980.0);

  EXPECT_EQ(tail_percentile(ramp(100), 99.0).percentile, 90.0);
  EXPECT_EQ(tail_percentile(ramp(12), 99.0).percentile, 50.0);  // the floor
  EXPECT_EQ(tail_percentile(ramp(100000), 99.0).percentile, 99.0);  // never above wanted
}

TEST(RecordLog, LoadsEveryRecordInOrder) {
  EXPECT_TRUE(RecordLog<BlockStamp>("perfbench-test").load().empty());
  RecordLog<BlockStamp> log("perfbench-test");
  for (std::int64_t k = 0; k < 100'000; ++k) log.append(BlockStamp{k, -k});
  const auto records = log.load();
  ASSERT_EQ(records.size(), 100'000u);
  for (std::size_t k = 0; k < records.size(); ++k) {
    ASSERT_EQ(records[k].call_ns, static_cast<std::int64_t>(k));
    ASSERT_EQ(records[k].return_ns, -static_cast<std::int64_t>(k));
  }
}

TEST(ReplaySource, ReplaysTheFeedAndStampsEveryBlock) {
  auto feed = std::make_shared<const Feed>(7, 12, 64.512e6, 10'000);
  ReplaySource src(feed, /*max_blocks=*/5);
  std::vector<std::int64_t> out(kBlock), want(kBlock);
  for (std::uint64_t k = 0; k < 5; ++k) {
    ASSERT_EQ(src.read(out), kBlock);
    feed->fill(k * kBlock, want);
    EXPECT_EQ(out, want);
  }
  EXPECT_EQ(src.read(out), 0u);  // max_blocks reached: end of stream
  EXPECT_EQ(src.blocks(), 5u);
  const auto stamps = src.stamps();
  ASSERT_EQ(stamps.size(), 5u);
  for (std::size_t k = 0; k < stamps.size(); ++k) {
    EXPECT_LE(stamps[k].call_ns, stamps[k].return_ns);
    if (k > 0) EXPECT_LE(stamps[k - 1].return_ns, stamps[k].call_ns);
  }

  ReplaySource stopped(feed);
  stopped.stop();
  EXPECT_EQ(stopped.read(out), 0u);
  EXPECT_TRUE(stopped.stamps().empty());
}

ChunkRecord chunk(std::uint64_t seq, std::vector<core::IqSample> iq,
                  stream::GapCause gap = stream::GapCause::kNone) {
  stream::StreamChunk c;
  c.block_seq = seq;
  c.gap_before = gap;
  c.iq = std::move(iq);
  return ChunkRecord::of(0, c);
}

std::vector<core::IqSample> payload(std::uint64_t seq) {
  return {{static_cast<std::int64_t>(seq), -1}, {7, static_cast<std::int64_t>(seq * 3)}};
}

TEST(Checker, FlagsCorruptedMissingAndGapMarkedChunks) {
  std::vector<std::uint64_t> ref;
  for (std::uint64_t k = 0; k < 6; ++k) ref.push_back(digest(payload(k)));

  SessionCheck clean;
  for (std::uint64_t k = 0; k < 6; ++k) clean.on_chunk(chunk(k, payload(k)));
  EXPECT_EQ(clean.failed_against(ref), 0u);

  SessionCheck corrupted;
  for (std::uint64_t k = 0; k < 6; ++k) {
    auto iq = payload(k);
    if (k == 3) iq[1].q ^= 1;  // one flipped bit
    corrupted.on_chunk(chunk(k, iq));
  }
  EXPECT_EQ(corrupted.failed_against(ref), 1u);

  SessionCheck missing;
  for (std::uint64_t k = 0; k < 6; ++k)
    if (k != 2) missing.on_chunk(chunk(k, payload(k)));
  EXPECT_EQ(missing.failed_against(ref), 1u);

  SessionCheck truncated;  // the tail never arrived
  for (std::uint64_t k = 0; k < 4; ++k) truncated.on_chunk(chunk(k, payload(k)));
  EXPECT_EQ(truncated.failed_against(ref), 2u);

  SessionCheck gapped;
  for (std::uint64_t k = 0; k < 6; ++k)
    gapped.on_chunk(chunk(k, payload(k), k == 4 ? stream::GapCause::kDropOldest
                                                : stream::GapCause::kNone));
  EXPECT_EQ(gapped.failed_against(ref), 1u);

  SessionCheck duplicated;
  for (std::uint64_t k = 0; k < 6; ++k) duplicated.on_chunk(chunk(k, payload(k)));
  duplicated.on_chunk(chunk(5, payload(5)));
  EXPECT_EQ(duplicated.failed_against(ref), 1u);
}

TEST(Checker, CadenceMatchesTheStagedPipeline) {
  const auto plan = figure1();
  const Cadence c = Cadence::of(plan);
  EXPECT_EQ(c.period, 2688u);
  core::DdcPipeline pipe(plan);
  std::vector<std::int64_t> zeros(3 * kBlock, 0);
  std::vector<core::IqSample> out;
  for (int k = 0; k < 4; ++k) {
    pipe.process_block(zeros, out);
    EXPECT_EQ(out.size(), c.outputs_after((k + 1) * zeros.size()));
  }
}

TEST(Checker, RetunedSessionsAllowOnlyTheirFlushMarkers) {
  const Cadence c{2687, 2688};
  auto outputs = [&](std::uint64_t k, std::uint64_t origin) {
    return std::vector<core::IqSample>(
        c.outputs_after((k + 1) * kBlock - origin) - c.outputs_after(k * kBlock - origin));
  };
  // Blocks 0..9; a kFlush retune lands before block 4.
  auto run = [&](std::uint64_t flush_at, stream::GapCause cause) {
    SessionCheck s;
    for (std::uint64_t k = 0; k < 10; ++k) {
      const std::uint64_t origin = k >= flush_at ? flush_at * kBlock : 0;
      s.on_chunk(chunk(k, outputs(k, origin), k == flush_at ? cause : stream::GapCause::kNone));
    }
    return s;
  };
  EXPECT_EQ(run(4, stream::GapCause::kRetuneFlush).failed_retuned(10, kBlock, c, {4}), 0u);
  // Two flushes between the same two blocks leave one marker.
  EXPECT_EQ(run(4, stream::GapCause::kRetuneFlush).failed_retuned(10, kBlock, c, {4, 4}), 0u);
  // A marker nobody asked for, or a flush that left none.
  EXPECT_GT(run(4, stream::GapCause::kRetuneFlush).failed_retuned(10, kBlock, c, {}), 0u);
  EXPECT_EQ(run(4, stream::GapCause::kRetuneFlush).failed_retuned(10, kBlock, c, {4, 7}), 1u);
  // Any other gap cause fails.
  EXPECT_GT(run(4, stream::GapCause::kShed).failed_retuned(10, kBlock, c, {}), 0u);
  // A chunk whose output count does not follow the cadence fails.
  SessionCheck wrong;
  for (std::uint64_t k = 0; k < 10; ++k) {
    auto iq = outputs(k, 0);
    if (k == 5) iq.emplace_back();
    wrong.on_chunk(chunk(k, iq));
  }
  EXPECT_EQ(wrong.failed_retuned(10, kBlock, c, {}), 1u);
}

// The check end to end: one healthy session and one whose backend corrupts
// its 4th block (the repo's FaultInjector), served by a real engine.
TEST(Checker, FlagsTheCorruptedChunkOfARealEngineRun) {
  twiddc::backends::register_builtin();
  twiddc::stream::FaultInjector injector(99);
  twiddc::stream::FaultSpec spec;
  spec.kind = twiddc::stream::FaultKind::kCorrupt;
  spec.site = twiddc::stream::FaultSite::kProcess;
  spec.first = 3;
  spec.max_fires = 1;
  const std::string faulty =
      injector.register_faulty_backend(twiddc::backends::kNative, spec);

  auto feed = std::make_shared<const Feed>(3, 12, 64.512e6, 100'000);
  twiddc::stream::EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = kBlock;
  twiddc::stream::StreamEngine engine(
      std::make_unique<ReplaySource>(feed, 12), opts);
  const auto plan = figure1();
  std::vector<std::shared_ptr<stream::Session>> sessions = {
      engine.open(plan, twiddc::backends::kNative), engine.open(plan, faulty)};
  engine.start();
  const auto chunks = twiddc::stream::drain_all(engine, sessions);
  engine.stop();
  ASSERT_EQ(engine.blocks_pumped(), 12u);

  const auto ref = reference_digests(twiddc::backends::kNative, plan, *feed, kBlock, 12);
  SessionCheck healthy, corrupted;
  for (const auto& c : chunks[0]) healthy.on_chunk(ChunkRecord::of(0, c));
  for (const auto& c : chunks[1]) corrupted.on_chunk(ChunkRecord::of(1, c));
  EXPECT_EQ(healthy.failed_against(ref), 0u);
  EXPECT_EQ(corrupted.failed_against(ref), 1u);
}

TEST(TimedBackend, IsBitExactWithTheBackendItWraps) {
  twiddc::backends::register_builtin();
  const auto cfg = core::DdcConfig::reference(12.5e6);
  const Feed feed(11, 12, cfg.input_rate_hz, 50'000);
  std::vector<std::int64_t> in(kBlock);
  for (const auto& name : core::BackendRegistry::instance().names()) {
    if (name.find("timed:") == 0 || name.find("+faulty") != std::string::npos) continue;
    auto plain = core::BackendRegistry::instance().create(name);
    const auto plan = plain->plan_for(cfg);
    plain->configure(plan);
    CallLog log;
    TimedBackend timed(core::BackendRegistry::instance().create(name), &log);
    timed.configure(plan);
    EXPECT_EQ(timed.name(), plain->name());
    std::vector<core::IqSample> want, got;
    for (std::uint64_t k = 0; k < 6; ++k) {
      feed.fill(k * kBlock, in);
      plain->process_block(in, want);
      timed.process_block(in, got);
    }
    EXPECT_EQ(got, want) << name;
    ASSERT_EQ(log.calls.size(), 6u) << name;
    for (const auto& call : log.calls) EXPECT_LE(call.start_ns, call.end_ns);
  }
}

TEST(TimedBackend, RegisteredTwinsLogInOpenOrder) {
  twiddc::backends::register_builtin();
  SpanRecorder recorder;
  recorder.register_timed_backends();
  auto a = core::BackendRegistry::instance().create(
      SpanRecorder::timed_name(twiddc::backends::kNative));
  auto b = core::BackendRegistry::instance().create(
      SpanRecorder::timed_name(twiddc::backends::kFixedDdc));
  EXPECT_EQ(recorder.logs_created(), 2u);
  EXPECT_EQ(b->name(), twiddc::backends::kFixedDdc);
}

}  // namespace
}  // namespace perfbench
