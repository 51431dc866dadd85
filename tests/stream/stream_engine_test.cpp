// StreamEngine: session lifecycle, streamed-vs-one-shot bit-exactness,
// backpressure policies under a stalled consumer, concurrent retune via the
// swap_plan glitch contract, and the many-user acceptance scenario (16+
// concurrent sessions across heterogeneous backends on one shared feed).
#include "src/stream/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/backends/builtin.hpp"
#include "src/common/error.hpp"
#include "src/core/backend.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/core/plan_compiler.hpp"
#include "src/dsp/signal.hpp"
#include "src/stream/source.hpp"

namespace twiddc::stream {
namespace {

using core::ChainPlan;
using core::DatapathSpec;
using core::DdcConfig;
using core::IqSample;
using core::SwapMode;

DdcConfig reference_config() { return DdcConfig::reference(10.0e6); }

ChainPlan figure1_plan(double nco_offset_hz = 0.0) {
  auto cfg = reference_config();
  cfg.nco_freq_hz += nco_offset_hz;
  return ChainPlan::figure1(cfg, DatapathSpec::wide16());
}

std::vector<std::int64_t> make_feed(std::size_t n) {
  const auto cfg = reference_config();
  return dsp::quantize_signal(dsp::make_tone(10.0025e6, cfg.input_rate_hz, n, 0.7), 12);
}

/// One-shot reference: a fresh backend instance over the whole feed in one
/// process_block call.
std::vector<IqSample> one_shot(const std::string& backend_name, const ChainPlan& plan,
                               const std::vector<std::int64_t>& feed) {
  auto backend = core::BackendRegistry::instance().create(backend_name);
  backend->configure(plan);
  std::vector<IqSample> out;
  backend->process_block(feed, out);
  return out;
}

void expect_equal(const std::vector<IqSample>& got, const std::vector<IqSample>& want,
                  const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].i, want[k].i) << label << " sample " << k;
    ASSERT_EQ(got[k].q, want[k].q) << label << " sample " << k;
  }
}

/// Spins until pred() holds (generous bound: TSan slows everything down).
template <typename Pred>
bool wait_until(Pred pred, std::chrono::seconds timeout = std::chrono::seconds(30)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class StreamEngineTest : public ::testing::Test {
 protected:
  void SetUp() override { backends::register_builtin(); }
};

TEST_F(StreamEngineTest, SessionLifecycleStreamsBitExact) {
  const auto feed = make_feed(2688 * 8);
  EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = 2048;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto session = engine.open(figure1_plan(), backends::kNative);
  EXPECT_EQ(engine.session_count(), 1u);
  EXPECT_EQ(session->backend_name(), backends::kNative);

  engine.start();
  auto chunks = drain_all(engine, {session});
  engine.stop();

  expect_equal(flatten(chunks[0]), one_shot(backends::kNative, figure1_plan(), feed),
               "native session");

  // Chunk metadata: feed order, no discontinuities.
  std::uint64_t expected_seq = 0;
  for (const auto& chunk : chunks[0]) {
    EXPECT_EQ(chunk.block_seq, expected_seq++);
    EXPECT_EQ(chunk.gap_before, GapCause::kNone);
  }

  const auto stats = session->stats();
  const std::uint64_t n_blocks = (feed.size() + 2047) / 2048;
  EXPECT_EQ(stats.blocks_enqueued, n_blocks);
  EXPECT_EQ(stats.blocks_processed, n_blocks);
  EXPECT_EQ(stats.samples_processed, feed.size());
  EXPECT_EQ(stats.samples_out, flatten(chunks[0]).size());
  EXPECT_EQ(stats.input_drop_blocks, 0u);
  EXPECT_EQ(stats.output_drop_chunks, 0u);
  EXPECT_EQ(stats.gaps, 0u);
  EXPECT_TRUE(engine.feed_exhausted());
}

TEST_F(StreamEngineTest, HeterogeneousBackendsShareOneFeed) {
  const auto cfg = reference_config();
  const auto feed = make_feed(2688 * 6);
  EngineOptions opts;
  opts.workers = 3;
  opts.block_samples = 2688;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);

  // Every backend runs its own lowering of the same rate plan, fed by the
  // same antenna samples.
  const std::vector<std::string> names = {backends::kNative, backends::kFixedDdc,
                                          backends::kFloatDdc, backends::kGc4016};
  std::vector<std::shared_ptr<Session>> sessions;
  std::vector<ChainPlan> plans;
  for (const auto& name : names) {
    auto probe = core::BackendRegistry::instance().create(name);
    plans.push_back(probe->plan_for(cfg));
    sessions.push_back(engine.open(plans.back(), name));
  }

  engine.start();
  auto chunks = drain_all(engine, sessions);
  engine.stop();

  for (std::size_t i = 0; i < names.size(); ++i)
    expect_equal(flatten(chunks[i]), one_shot(names[i], plans[i], feed), names[i]);
}

TEST_F(StreamEngineTest, SessionOpenedMidStreamJoinsAtLivePosition) {
  const auto feed = make_feed(2048 * 16);
  EngineOptions opts;
  opts.block_samples = 2048;
  opts.session_queue_blocks = 4;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  // Pause the first (kBlock) session so the pump deterministically stalls
  // mid-feed while the late session is opened.
  auto first = engine.open(figure1_plan(), backends::kNative);
  first->set_paused(true);
  engine.start();
  ASSERT_TRUE(wait_until([&] { return first->stats().blocks_enqueued >= 4; }));
  auto late = engine.open(figure1_plan(), backends::kFixedDdc);
  first->set_paused(false);
  auto chunks = drain_all(engine, {first, late});
  engine.stop();
  ASSERT_FALSE(chunks[1].empty());
  EXPECT_GE(chunks[1].front().block_seq, 4u);
  EXPECT_LT(late->stats().blocks_enqueued, engine.blocks_pumped());
}

TEST_F(StreamEngineTest, CloseMidStreamLeavesOtherSessionsRunning) {
  const auto feed = make_feed(2688 * 8);
  EngineOptions opts;
  opts.block_samples = 2048;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto keeper = engine.open(figure1_plan(), backends::kNative);
  auto victim = engine.open(figure1_plan(25.0e3), backends::kNative);
  engine.start();
  ASSERT_TRUE(wait_until([&] { return victim->stats().blocks_processed >= 1; }));
  victim->close();
  EXPECT_TRUE(victim->closed());
  auto chunks = drain_all(engine, {keeper, victim});
  engine.stop();
  expect_equal(flatten(chunks[0]), one_shot(backends::kNative, figure1_plan(), feed),
               "surviving session");
  // The closed session stopped early but its polled prefix is intact.
  const auto want = one_shot(backends::kNative, figure1_plan(25.0e3), feed);
  const auto got = flatten(chunks[1]);
  ASSERT_LE(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].i, want[k].i) << "closed-session sample " << k;
    EXPECT_EQ(got[k].q, want[k].q) << "closed-session sample " << k;
  }
}

TEST_F(StreamEngineTest, QueuedOutputSurvivesStop) {
  const auto feed = make_feed(2688 * 4);
  EngineOptions opts;
  opts.block_samples = 2688;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto session = engine.open(figure1_plan(), backends::kNative);
  engine.start();
  const std::uint64_t n_blocks = (feed.size() + 2687) / 2688;
  // Wait for the chunks to be *queued* (not merely processed) so stop()
  // cannot race the worker's final output push.
  ASSERT_TRUE(wait_until([&] { return session->queued_output_chunks() == n_blocks; }));
  engine.stop();
  EXPECT_FALSE(engine.running());
  expect_equal(flatten(session->poll()),
               one_shot(backends::kNative, figure1_plan(), feed), "post-stop poll");
}

TEST_F(StreamEngineTest, SessionHandleOutlivesItsEngine) {
  // The EngineLink contract: a client's session handle stays usable after
  // the engine that opened it is destroyed.
  const auto feed = make_feed(2048 * 8);
  EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = 2048;
  std::shared_ptr<Session> session;
  {
    StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
    session = engine.open(figure1_plan(), backends::kNative);
    engine.start();
    for (;;) {
      const auto token = engine.output_token();  // before the check
      if (session->queued_output_chunks() > 0) break;
      engine.wait_output(token);
    }
  }  // ~StreamEngine stops the run and cuts the link

  // Queued output polls bit-exact: a gap-free prefix of the one-shot run.
  const auto chunks = session->poll();
  ASSERT_FALSE(chunks.empty());
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    EXPECT_EQ(chunks[k].block_seq, k);
    EXPECT_EQ(chunks[k].gap_before, GapCause::kNone);
  }
  const auto got = flatten(chunks);
  const auto want = one_shot(backends::kNative, figure1_plan(), feed);
  ASSERT_LE(got.size(), want.size());
  expect_equal(got, std::vector<IqSample>(want.begin(), want.begin() + got.size()),
               "post-engine poll");

  // With no engine, a retune applies inline on this thread.
  EXPECT_TRUE(session->retune(figure1_plan(25.0e3), SwapMode::kSplice));
  EXPECT_EQ(session->stats().retunes_applied, 1u);

  // The scheduling nudges have nobody to reach; they must be no-ops.
  session->set_paused(true);
  session->set_paused(false);
  session->close();
  EXPECT_TRUE(session->closed());
  EXPECT_TRUE(session->poll().empty());
}

TEST_F(StreamEngineTest, DefaultWorkerCountHonoursEnvOverride) {
  // workers <= 0 resolves at construction: TWIDDC_WORKERS when set and
  // positive (a deployment setting), else the hardware concurrency.
  const char* env = std::getenv("TWIDDC_WORKERS");
  const std::optional<std::string> saved =
      env ? std::optional<std::string>(env) : std::nullopt;
  ::unsetenv("TWIDDC_WORKERS");
  const auto resolved = [](int requested) {
    EngineOptions opts;
    opts.workers = requested;
    return StreamEngine(std::make_unique<VectorSource>(make_feed(16)), opts)
        .options()
        .workers;
  };
  const int base = resolved(0);
  EXPECT_GE(base, 1);
  ::setenv("TWIDDC_WORKERS", "3", 1);
  EXPECT_EQ(resolved(0), 3);
  EXPECT_EQ(resolved(2), 2);  // an explicit count wins over the variable
  ::setenv("TWIDDC_WORKERS", "0", 1);  // non-positive: ignored
  EXPECT_EQ(resolved(0), base);
  ::setenv("TWIDDC_WORKERS", "junk", 1);  // unparsable: ignored
  EXPECT_EQ(resolved(0), base);
  ::unsetenv("TWIDDC_WORKERS");
  EXPECT_EQ(resolved(-1), base);
  if (saved) ::setenv("TWIDDC_WORKERS", saved->c_str(), 1);
}

TEST_F(StreamEngineTest, BlockPolicyStallsThePumpAndLosesNothing) {
  const auto feed = make_feed(2048 * 12);
  EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = 2048;
  opts.session_queue_blocks = 4;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto session = engine.open(figure1_plan(), backends::kNative,
                             BackpressurePolicy::kBlock);
  session->set_paused(true);
  engine.start();

  // The paused consumer fills its 4-block ring; the pump must stall with
  // the 5th block in hand rather than advance the shared feed.
  ASSERT_TRUE(wait_until([&] { return session->stats().blocks_enqueued == 4; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(session->stats().blocks_enqueued, 4u);
  EXPECT_LE(engine.blocks_pumped(), 5u);
  EXPECT_FALSE(engine.feed_exhausted());
  EXPECT_EQ(session->stats().max_queue_depth, 4u);

  session->set_paused(false);
  auto chunks = drain_all(engine, {session});
  engine.stop();

  const auto stats = session->stats();
  EXPECT_EQ(stats.input_drop_blocks, 0u);
  EXPECT_EQ(stats.output_drop_chunks, 0u);
  EXPECT_EQ(stats.gaps, 0u);
  expect_equal(flatten(chunks[0]), one_shot(backends::kNative, figure1_plan(), feed),
               "block-policy stream");
}

TEST_F(StreamEngineTest, DropOldestShedsLoadAndSurfacesGapMetadata) {
  const auto feed = make_feed(2048 * 12);
  EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = 2048;
  opts.session_queue_blocks = 4;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto session = engine.open(figure1_plan(), backends::kNative,
                             BackpressurePolicy::kDropOldest);
  session->set_paused(true);
  engine.start();

  // The stalled consumer must NOT stall the feed: the pump sheds the oldest
  // blocks and runs the source dry.
  ASSERT_TRUE(wait_until([&] { return engine.feed_exhausted(); }));
  session->set_paused(false);
  auto chunks = drain_all(engine, {session});
  engine.stop();

  const auto stats = session->stats();
  EXPECT_EQ(stats.input_drop_blocks, 8u);  // 12 pumped into a 4-deep ring
  EXPECT_EQ(stats.input_drop_samples, 8u * 2048u);
  EXPECT_EQ(stats.blocks_processed, 4u);
  EXPECT_EQ(stats.gaps, 1u);

  // The surviving stream is the newest 4 blocks, with the loss surfaced on
  // its first chunk.
  ASSERT_EQ(chunks[0].size(), 4u);
  EXPECT_EQ(chunks[0].front().block_seq, 8u);
  EXPECT_EQ(chunks[0].front().gap_before, GapCause::kDropOldest);
  EXPECT_EQ(chunks[0].front().dropped_feed_samples, 8u * 2048u);
  for (std::size_t k = 1; k < chunks[0].size(); ++k)
    EXPECT_EQ(chunks[0][k].gap_before, GapCause::kNone);
}

TEST_F(StreamEngineTest, SpliceRetuneMidStreamIsBitExactWithReplay) {
  const auto feed = make_feed(2688 * 10);
  EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = 2048;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto session = engine.open(figure1_plan(), backends::kNative);
  engine.start();
  // Retune to a detuned NCO mid-stream; splice keeps all filter state.
  ASSERT_TRUE(wait_until([&] { return session->stats().blocks_processed >= 2; }));
  ASSERT_TRUE(session->retune(figure1_plan(40.0e3), SwapMode::kSplice));
  auto chunks = drain_all(engine, {session});
  engine.stop();

  const auto stats = session->stats();
  EXPECT_EQ(stats.retunes_applied, 1u);
  EXPECT_EQ(stats.gaps, 0u);  // splice is gap-free by contract

  // Replay the exact schedule: the engine recorded the block boundary the
  // swap landed on, so the one-shot twin can reproduce the stream.
  const std::size_t boundary =
      std::min(static_cast<std::size_t>(stats.last_retune_block) * 2048, feed.size());
  auto backend = core::BackendRegistry::instance().create(backends::kNative);
  backend->configure(figure1_plan());
  std::vector<IqSample> want;
  backend->process_block(std::span<const std::int64_t>(feed.data(), boundary), want);
  backend->swap_plan(figure1_plan(40.0e3), SwapMode::kSplice);
  backend->process_block(
      std::span<const std::int64_t>(feed.data() + boundary, feed.size() - boundary),
      want);
  expect_equal(flatten(chunks[0]), want, "spliced stream");
}

TEST_F(StreamEngineTest, FlushRetuneSurfacesCleanGapInStream) {
  const auto feed = make_feed(2048 * 20);
  EngineOptions opts;
  opts.block_samples = 2048;
  opts.session_queue_blocks = 4;
  // A 2-chunk output ring throttles the worker mid-stream until this thread
  // polls, so the retune below deterministically lands with feed blocks
  // still queued behind it -- the gap marker must surface on one of them.
  opts.session_output_chunks = 2;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto session = engine.open(figure1_plan(), backends::kNative);
  engine.start();
  // Park the session on its full output ring first, so the retune lands
  // deterministically mid-stream (blocks remain to carry the gap marker).
  ASSERT_TRUE(wait_until([&] { return session->queued_output_chunks() >= 2; }));
  ASSERT_TRUE(session->retune(figure1_plan(40.0e3), SwapMode::kFlush));
  auto chunks = drain_all(engine, {session});
  engine.stop();
  EXPECT_LT(session->stats().last_retune_block, 20u);

  const auto stats = session->stats();
  EXPECT_EQ(stats.retunes_applied, 1u);
  EXPECT_EQ(stats.gaps, 1u);
  std::size_t flush_gaps = 0;
  for (const auto& chunk : chunks[0])
    if (chunk.gap_before == GapCause::kRetuneFlush) ++flush_gaps;
  EXPECT_EQ(flush_gaps, 1u);

  const std::size_t boundary =
      std::min(static_cast<std::size_t>(stats.last_retune_block) * 2048, feed.size());
  auto backend = core::BackendRegistry::instance().create(backends::kNative);
  backend->configure(figure1_plan());
  std::vector<IqSample> want;
  backend->process_block(std::span<const std::int64_t>(feed.data(), boundary), want);
  backend->swap_plan(figure1_plan(40.0e3), SwapMode::kFlush);
  backend->process_block(
      std::span<const std::int64_t>(feed.data() + boundary, feed.size() - boundary),
      want);
  expect_equal(flatten(chunks[0]), want, "flushed stream");
}

TEST_F(StreamEngineTest, RetuneAppliesWhileOutputRingIsFull) {
  const auto feed = make_feed(2048 * 20);
  EngineOptions opts;
  opts.block_samples = 2048;
  opts.session_queue_blocks = 4;
  opts.session_output_chunks = 2;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto session = engine.open(figure1_plan(), backends::kNative);
  engine.start();
  // Park the session: 2 chunks queued, the next stashed awaiting poll space.
  ASSERT_TRUE(wait_until([&] { return session->queued_output_chunks() >= 2; }));
  // Single-threaded client, not polling: retune() must still apply (the
  // worker keeps scheduling parked sessions' mailboxes).
  ASSERT_TRUE(session->retune(figure1_plan(40.0e3), SwapMode::kSplice));
  auto chunks = drain_all(engine, {session});
  engine.stop();

  const auto stats = session->stats();
  EXPECT_EQ(stats.retunes_applied, 1u);
  EXPECT_LT(stats.last_retune_block, 20u);
  const std::size_t boundary =
      std::min(static_cast<std::size_t>(stats.last_retune_block) * 2048, feed.size());
  auto backend = core::BackendRegistry::instance().create(backends::kNative);
  backend->configure(figure1_plan());
  std::vector<IqSample> want;
  backend->process_block(std::span<const std::int64_t>(feed.data(), boundary), want);
  backend->swap_plan(figure1_plan(40.0e3), SwapMode::kSplice);
  backend->process_block(
      std::span<const std::int64_t>(feed.data() + boundary, feed.size() - boundary),
      want);
  expect_equal(flatten(chunks[0]), want, "retune-while-parked stream");
}

TEST_F(StreamEngineTest, BackloggedSessionNeverStarvesCoPinnedSession) {
  // One worker, two kBlock sessions sharing it.  Session A's tiny output
  // ring fills while nobody polls; session B -- and B's retune() -- must
  // keep being serviced regardless (a full output ring parks the session,
  // not the worker).
  const auto feed = make_feed(2048 * 16);
  EngineOptions opts;
  opts.workers = 1;
  opts.block_samples = 2048;
  opts.session_queue_blocks = 4;
  opts.session_output_chunks = 2;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto a = engine.open(figure1_plan(), backends::kNative);
  auto b = engine.open(figure1_plan(25.0e3), backends::kNative);
  engine.start();
  ASSERT_TRUE(wait_until([&] { return a->queued_output_chunks() >= 2; }));
  // B streams on (its ring fills too, but blocks keep being consumed until
  // then) and, critically, its retune applies without any polling.
  ASSERT_TRUE(b->retune(figure1_plan(30.0e3), SwapMode::kSplice));
  EXPECT_EQ(b->stats().retunes_applied, 1u);

  auto chunks = drain_all(engine, {a, b});
  engine.stop();
  expect_equal(flatten(chunks[0]), one_shot(backends::kNative, figure1_plan(), feed),
               "backlogged session A");
  // Replay B's recorded retune schedule.
  const auto stats = b->stats();
  const std::size_t boundary =
      std::min(static_cast<std::size_t>(stats.last_retune_block) * 2048, feed.size());
  auto backend = core::BackendRegistry::instance().create(backends::kNative);
  backend->configure(figure1_plan(25.0e3));
  std::vector<IqSample> want;
  backend->process_block(std::span<const std::int64_t>(feed.data(), boundary), want);
  backend->swap_plan(figure1_plan(30.0e3), SwapMode::kSplice);
  backend->process_block(
      std::span<const std::int64_t>(feed.data() + boundary, feed.size() - boundary),
      want);
  expect_equal(flatten(chunks[1]), want, "co-pinned session B");
}

TEST_F(StreamEngineTest, OutputEvictionForwardsLossOntoNextChunk) {
  const auto feed = make_feed(2688 * 6);
  EngineOptions opts;
  opts.block_samples = 2688;  // one IQ sample per chunk
  opts.session_output_chunks = 2;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto session = engine.open(figure1_plan(), backends::kNative,
                             BackpressurePolicy::kDropOldest);
  engine.start();
  // Never poll while streaming: the 2-chunk output ring forces the worker
  // to evict chunks 0..3; the drop-policy worker never stalls, so the feed
  // runs dry deterministically.  Wait for the terminal queue state (last
  // chunk DELIVERED, 4th eviction done) -- blocks_processed alone ticks
  // before the final delivery, and stop() would discard the stashed chunk.
  ASSERT_TRUE(wait_until([&] {
    const auto st = session->stats();
    return st.blocks_processed == 6 && st.output_drop_chunks == 4 &&
           session->queued_output_chunks() == 2;
  }));
  auto chunks = session->poll();
  engine.stop();

  const auto stats = session->stats();
  EXPECT_EQ(stats.output_drop_chunks, 4u);
  EXPECT_EQ(stats.output_drop_samples, 4u);
  ASSERT_EQ(chunks.size(), 2u);
  // The survivors are the newest blocks, and each was built after at least
  // one eviction, so the loss is surfaced in-band, not silently swallowed.
  EXPECT_EQ(chunks[0].block_seq, 4u);
  EXPECT_EQ(chunks[1].block_seq, 5u);
  for (const auto& chunk : chunks) {
    EXPECT_EQ(chunk.gap_before, GapCause::kDropOldest);
    EXPECT_GE(chunk.dropped_output_samples, 1u);
  }
}

TEST_F(StreamEngineTest, StopMidFeedUnblocksDrain) {
  // An endless feed: drain_all can only return because stop() cut it short.
  const auto cfg = reference_config();
  EngineOptions opts;
  opts.block_samples = 2048;
  StreamEngine engine(
      std::make_unique<ToneSource>(10.0025e6, cfg.input_rate_hz, 12, 0.7, 0),
      opts);
  auto session = engine.open(figure1_plan(), backends::kNative);
  engine.start();
  ASSERT_TRUE(wait_until([&] { return session->stats().blocks_processed >= 2; }));
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    engine.stop();
  });
  auto chunks = drain_all(engine, {session});  // must return, not hang
  stopper.join();
  EXPECT_FALSE(engine.running());
  EXPECT_FALSE(engine.feed_exhausted());
  // Whatever was drained is a clean prefix of the endless stream.
  const auto got = flatten(chunks[0]);
  EXPECT_GE(got.size(), 1u);
  for (const auto& chunk : chunks[0]) EXPECT_EQ(chunk.gap_before, GapCause::kNone);
}

TEST_F(StreamEngineTest, ClosedSessionIsPrunedFromTheEngine) {
  const auto feed = make_feed(2048 * 16);
  EngineOptions opts;
  opts.block_samples = 2048;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto keeper = engine.open(figure1_plan(), backends::kNative);
  auto victim = engine.open(figure1_plan(25.0e3), backends::kNative);
  EXPECT_EQ(engine.session_count(), 2u);
  engine.start();
  ASSERT_TRUE(wait_until([&] { return victim->stats().blocks_processed >= 1; }));
  victim->close();
  auto chunks = drain_all(engine, {keeper});
  (void)chunks;
  engine.stop();
  // The pump pruned the closed session; the client handle is still usable.
  EXPECT_EQ(engine.session_count(), 1u);
  EXPECT_EQ(victim->queued_input_blocks(), 0u);  // queued feed blocks freed
  EXPECT_GE(victim->stats().blocks_processed, 1u);
  EXPECT_NE(engine.stats_json().find("\"sessions\": 1"), std::string::npos);
}

TEST_F(StreamEngineTest, RejectedRetuneKeepsOldPlanStreaming) {
  const auto cfg = reference_config();
  const auto feed = make_feed(2688 * 6);
  EngineOptions opts;
  opts.block_samples = 2688;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto probe = core::BackendRegistry::instance().create(backends::kGc4016);
  const auto plan = probe->plan_for(cfg);
  auto session = engine.open(plan, backends::kGc4016);
  engine.start();
  // The GC4016 cannot lower the generic Figure 1 plan; the swap must be
  // rejected mid-stream and the old configuration must keep producing.
  EXPECT_FALSE(session->retune(figure1_plan(), SwapMode::kFlush));
  EXPECT_FALSE(session->last_error().empty());
  auto chunks = drain_all(engine, {session});
  engine.stop();
  EXPECT_EQ(session->stats().retunes_rejected, 1u);
  EXPECT_EQ(session->stats().retunes_applied, 0u);
  expect_equal(flatten(chunks[0]), one_shot(backends::kGc4016, plan, feed),
               "post-reject stream");
}

TEST_F(StreamEngineTest, OpenRejectsUnknownBackendAndUnmappablePlan) {
  StreamEngine engine(std::make_unique<VectorSource>(make_feed(2688)));
  EXPECT_THROW((void)engine.open(figure1_plan(), "no-such-backend"),
               twiddc::ConfigError);
  EXPECT_THROW((void)engine.open(figure1_plan(), backends::kGc4016),
               core::LoweringError);
  EXPECT_EQ(engine.session_count(), 0u);
}

TEST_F(StreamEngineTest, StartWhileRunningThrowsAndStopIsIdempotent) {
  StreamEngine engine(std::make_unique<VectorSource>(make_feed(2688)));
  engine.start();
  EXPECT_THROW(engine.start(), twiddc::SimulationError);
  engine.stop();
  engine.stop();  // idempotent
  EXPECT_FALSE(engine.running());
}

TEST_F(StreamEngineTest, StopStartResumesTheStreamGapFree) {
  // The engine is restartable: stop() parks the feed (queued input, the
  // current source position, and even a block whose fan-out the stop
  // interrupted all survive), start() resumes it, and the concatenated
  // stream is bit-exact with one uninterrupted run.  A paused kBlock
  // session pins the pump mid-feed deterministically, so this stop always
  // lands with the source unread past block 9 -- and always exercises the
  // interrupted-fan-out carry (the pump is parked inside enqueue()).
  const auto feed = make_feed(2048 * 24);
  EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = 2048;
  opts.session_queue_blocks = 8;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto session = engine.open(figure1_plan(), backends::kNative);
  session->set_paused(true);
  engine.start();
  ASSERT_TRUE(wait_until([&] { return session->stats().blocks_enqueued == 8; }));
  engine.stop();  // pump is parked pushing block 8: carried to the next run
  EXPECT_FALSE(engine.running());
  EXPECT_FALSE(engine.feed_exhausted());
  EXPECT_LT(engine.blocks_pumped(), 24u);

  // A session opened while stopped joins the feed on the next run.
  auto late = engine.open(figure1_plan(25.0e3), backends::kFixedDdc);
  session->set_paused(false);

  engine.start();
  EXPECT_TRUE(engine.running());
  auto rest = drain_all(engine, {session, late});
  engine.stop();
  EXPECT_TRUE(engine.feed_exhausted());

  std::uint64_t expected_seq = 0;
  for (const auto& chunk : rest[0]) {
    EXPECT_EQ(chunk.block_seq, expected_seq++);  // no block lost at the seam
    EXPECT_EQ(chunk.gap_before, GapCause::kNone);
  }
  EXPECT_EQ(expected_seq, 24u);
  expect_equal(flatten(rest[0]), one_shot(backends::kNative, figure1_plan(), feed),
               "restarted stream");
  // The late session starts at the carried block and is gap-free from its
  // join point.
  ASSERT_FALSE(rest[1].empty());
  EXPECT_GE(rest[1].front().block_seq, 8u);
  for (const auto& chunk : rest[1]) EXPECT_EQ(chunk.gap_before, GapCause::kNone);
}

TEST_F(StreamEngineTest, RestartAfterFeedExhaustionIsBenign) {
  const auto feed = make_feed(2688 * 2);
  EngineOptions opts;
  opts.block_samples = 2688;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto session = engine.open(figure1_plan(), backends::kNative);
  engine.start();
  auto chunks = drain_all(engine, {session});
  engine.stop();
  ASSERT_TRUE(engine.feed_exhausted());
  // A second run over the dry source serves nothing but must not hang,
  // lose state, or disturb already-produced output.
  engine.start();
  auto more = drain_all(engine, {session});
  engine.stop();
  EXPECT_TRUE(flatten(more[0]).empty());
  expect_equal(flatten(chunks[0]), one_shot(backends::kNative, figure1_plan(), feed),
               "pre-restart output");
}

TEST_F(StreamEngineTest, RetuneWhileStoppedAppliesInlineAndStreamsAfterRestart) {
  const auto feed = make_feed(2048 * 8);
  EngineOptions opts;
  opts.block_samples = 2048;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto session = engine.open(figure1_plan(), backends::kNative);
  engine.start();
  ASSERT_TRUE(wait_until([&] { return session->stats().blocks_processed >= 2; }));
  engine.stop();
  // Detached: the swap applies on this thread, between runs.
  ASSERT_TRUE(session->retune(figure1_plan(40.0e3), SwapMode::kSplice));
  engine.start();
  auto chunks = drain_all(engine, {session});
  engine.stop();
  const auto stats = session->stats();
  EXPECT_EQ(stats.retunes_applied, 1u);
  EXPECT_EQ(stats.retunes_inline, 1u);
  const std::size_t boundary =
      std::min(static_cast<std::size_t>(stats.last_retune_block) * 2048, feed.size());
  auto backend = core::BackendRegistry::instance().create(backends::kNative);
  backend->configure(figure1_plan());
  std::vector<IqSample> want;
  backend->process_block(std::span<const std::int64_t>(feed.data(), boundary), want);
  backend->swap_plan(figure1_plan(40.0e3), SwapMode::kSplice);
  backend->process_block(
      std::span<const std::int64_t>(feed.data() + boundary, feed.size() - boundary),
      want);
  expect_equal(flatten(chunks[0]), want, "retune-across-restart stream");
}

TEST_F(StreamEngineTest, StatsJsonDescribesEverySession) {
  const auto feed = make_feed(2688 * 4);
  StreamEngine engine(std::make_unique<VectorSource>(feed));
  (void)engine.open(figure1_plan(), backends::kNative);
  auto dropper = engine.open(figure1_plan(25.0e3), backends::kFixedDdc,
                             BackpressurePolicy::kDropOldest);
  engine.start();
  auto chunks = drain_all(engine, {dropper});
  (void)chunks;
  engine.stop();
  const std::string json = engine.stats_json();
  EXPECT_NE(json.find("\"engine\": {"), std::string::npos);
  EXPECT_NE(json.find("\"backend\": \"native-pipeline\""), std::string::npos);
  EXPECT_NE(json.find("\"backend\": \"fixed-ddc\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\": \"drop_oldest\""), std::string::npos);
  EXPECT_NE(json.find("\"blocks_pumped\""), std::string::npos);
  EXPECT_NE(json.find("\"msamples_per_s\""), std::string::npos);
  EXPECT_NE(json.find("\"last_retune_block\""), std::string::npos);
  EXPECT_NE(json.find("\"retunes_inline\""), std::string::npos);
  EXPECT_NE(json.find("\"paused\""), std::string::npos);
  // Scheduler-era fields: per-session fairness plus engine-level task
  // counters.
  EXPECT_NE(json.find("\"weight\""), std::string::npos);
  EXPECT_NE(json.find("\"service_passes\""), std::string::npos);
  EXPECT_NE(json.find("\"quantum_blocks\""), std::string::npos);
  EXPECT_NE(json.find("\"tasks_executed\""), std::string::npos);
  EXPECT_NE(json.find("\"targeted_wakeups\""), std::string::npos);
}

TEST_F(StreamEngineTest, SixtyFourIdenticalSessionsCompileOnePlan) {
  // The plan-cache acceptance case: 64 sessions with the same config must
  // resolve to ONE CompiledPlan -- 1 miss (the first open compiles) and 63
  // hits.  The cache is process-wide, so assert on counter deltas after a
  // clear().
  auto& cache = core::CompiledPlanCache::instance();
  cache.clear();
  const auto before = cache.stats();

  StreamEngine engine(std::make_unique<VectorSource>(make_feed(2688)));
  std::vector<std::shared_ptr<Session>> sessions;
  for (int s = 0; s < 64; ++s)
    sessions.push_back(engine.open(figure1_plan(), backends::kNative));

  const auto after = cache.stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 63u);
  EXPECT_EQ(after.lookups - before.lookups, 64u);

  // The engine surfaces the cache counters alongside its own stats.
  const std::string json = engine.stats_json();
  EXPECT_NE(json.find("\"plan_cache\": {"), std::string::npos);
  EXPECT_NE(json.find("\"hits\""), std::string::npos);
  EXPECT_NE(json.find("\"hit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"compile_seconds\""), std::string::npos);
}

// --------------------------------------------- scheduler fairness / gpp

TEST_F(StreamEngineTest, SixtyFourSessionsOnTwoWorkersMakeBoundedProgress) {
  // The admission/fairness acceptance case: sessions massively outnumber
  // workers.  Under kBlock backpressure every session's lag behind the
  // pump is bounded by its input ring, so at ANY instant the spread
  // between the most- and least-served session is bounded -- the weighted
  // round-robin quantum over one FIFO run queue keeps 64 actors on 2
  // workers from starving anyone.  (Run under TSan in CI.)
  constexpr std::size_t kSessions = 64;
  const auto feed = make_feed(2048 * 12);
  EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = 2048;
  opts.session_queue_blocks = 4;
  opts.session_quantum_blocks = 1;  // tightest legal quantum: maximum churn
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  std::vector<std::shared_ptr<Session>> sessions;
  for (std::size_t s = 0; s < kSessions; ++s)
    sessions.push_back(
        engine.open(figure1_plan(1.0e3 * static_cast<double>(s)), backends::kNative));
  sessions[0]->set_weight(4);  // a weighted session must not break the bounds
  EXPECT_EQ(sessions[0]->weight(), 4);
  engine.start();

  // Probe the spread while streaming is in flight.  The bound is the ring
  // depth plus slack for blocks mid-flight during this (unsynchronised)
  // 64-session sweep.
  for (int probe = 0; probe < 20; ++probe) {
    std::uint64_t lo = ~0ull;
    std::uint64_t hi = 0;
    for (const auto& s : sessions) {
      const auto p = s->stats().blocks_processed;
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
    EXPECT_LE(hi - lo, opts.session_queue_blocks + 8)
        << "unfair spread at probe " << probe;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto chunks = drain_all(engine, sessions);
  engine.stop();
  // Nobody starved, nobody dropped, and the streams are bit-exact.
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const auto stats = sessions[i]->stats();
    EXPECT_EQ(stats.blocks_processed, 12u) << "session " << i;
    EXPECT_EQ(stats.input_drop_blocks, 0u) << "session " << i;
    EXPECT_EQ(stats.gaps, 0u) << "session " << i;
  }
  for (const std::size_t i : {std::size_t{0}, std::size_t{31}, std::size_t{63}})
    expect_equal(flatten(chunks[i]),
                 one_shot(backends::kNative,
                          figure1_plan(1.0e3 * static_cast<double>(i)), feed),
                 "session " + std::to_string(i));
}

TEST_F(StreamEngineTest, GppBackendServesLongStreamsBitExact) {
  // The ARM program used to re-run from reset on every block (quadratic in
  // block count); the incremental DdcStream pins CPU state across blocks.
  // 31 odd-sized blocks through the engine must equal one batch run.
  const auto feed = make_feed(2688 * 24);
  EngineOptions opts;
  opts.workers = 2;
  opts.block_samples = 2048;  // not a multiple of the 2688 decimation
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto session = engine.open(figure1_plan(), backends::kGpp);
  engine.start();
  auto chunks = drain_all(engine, {session});
  engine.stop();
  EXPECT_EQ(session->stats().blocks_processed, (feed.size() + 2047) / 2048);
  expect_equal(flatten(chunks[0]), one_shot(backends::kGpp, figure1_plan(), feed),
               "gpp long stream");
}

// ------------------------------------------------- many-user acceptance

TEST_F(StreamEngineTest, SixteenPlusSessionsAcrossFiveArchitectures) {
  const auto cfg = reference_config();
  const auto feed = make_feed(2688 * 6);
  EngineOptions opts;
  opts.workers = 4;
  opts.block_samples = 2048;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);

  // 18 sessions spread across 5 architectures, all fed from the one shared
  // wideband source.  The cycle-true simulators ride along at 1 session
  // each; the functional backends and the ASIC model carry the fan-out.
  struct Spec {
    std::string backend;
    ChainPlan plan;
  };
  std::vector<Spec> specs;
  for (int i = 0; i < 8; ++i)
    specs.push_back({backends::kNative, figure1_plan(20.0e3 * i)});
  for (int i = 0; i < 4; ++i)
    specs.push_back({backends::kFixedDdc, figure1_plan(15.0e3 * i)});
  for (int i = 0; i < 3; ++i)
    specs.push_back({backends::kFloatDdc, figure1_plan(10.0e3 * i)});
  {
    auto probe = core::BackendRegistry::instance().create(backends::kGc4016);
    specs.push_back({backends::kGc4016, probe->plan_for(cfg)});
    specs.push_back({backends::kGc4016, probe->plan_for(cfg)});
  }
  {
    auto probe = core::BackendRegistry::instance().create(backends::kFpga);
    specs.push_back({backends::kFpga, probe->plan_for(cfg)});
  }
  ASSERT_GE(specs.size(), 16u);

  std::vector<std::shared_ptr<Session>> sessions;
  for (const auto& spec : specs) sessions.push_back(engine.open(spec.plan, spec.backend));

  engine.start();
  // Mid-stream retune on a live native session while 17 others stream.
  ASSERT_TRUE(wait_until([&] { return sessions[0]->stats().blocks_processed >= 1; }));
  ASSERT_TRUE(sessions[0]->retune(figure1_plan(55.0e3), SwapMode::kSplice));
  auto chunks = drain_all(engine, sessions);
  engine.stop();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto got = flatten(chunks[i]);
    if (i == 0) {
      // Replay the recorded retune schedule for the retuned session.
      const auto stats = sessions[0]->stats();
      const std::size_t boundary = std::min(
          static_cast<std::size_t>(stats.last_retune_block) * 2048, feed.size());
      auto backend = core::BackendRegistry::instance().create(backends::kNative);
      backend->configure(specs[0].plan);
      std::vector<IqSample> want;
      backend->process_block(std::span<const std::int64_t>(feed.data(), boundary),
                             want);
      backend->swap_plan(figure1_plan(55.0e3), SwapMode::kSplice);
      backend->process_block(
          std::span<const std::int64_t>(feed.data() + boundary,
                                        feed.size() - boundary),
          want);
      expect_equal(got, want, "retuned session 0");
      continue;
    }
    expect_equal(got, one_shot(specs[i].backend, specs[i].plan, feed),
                 specs[i].backend + " session " + std::to_string(i));
    EXPECT_EQ(sessions[i]->stats().gaps, 0u);
    EXPECT_EQ(sessions[i]->stats().input_drop_blocks, 0u);
  }
  EXPECT_EQ(engine.session_count(), specs.size());
}

}  // namespace
}  // namespace twiddc::stream
