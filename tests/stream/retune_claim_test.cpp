// Where Session::retune runs the swap.  While no worker is inside a pass of
// the session, retune() claims the session's actor and calls swap_plan on
// its own thread; while a worker is mid-pass, the request goes through the
// mailbox and that worker applies it after its current block.  A probe
// backend (a backends::register_decorated twin) records the thread and the
// block count of every swap, can park a worker inside one block until the
// test opens it, and flags any moment two threads are inside the backend.
#include "src/stream/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/backends/builtin.hpp"
#include "src/core/backend.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/dsp/signal.hpp"
#include "src/stream/fault_injector.hpp"
#include "src/stream/source.hpp"

namespace twiddc::stream {
namespace {

using core::ChainPlan;
using core::IqSample;
using core::SwapMode;

constexpr std::size_t kBlock = 2048;
constexpr auto kTimeout = std::chrono::seconds(30);  // generous: TSan is slow

ChainPlan figure1_plan(double nco_offset_hz = 0.0) {
  auto cfg = core::DdcConfig::reference(10.0e6);
  cfg.nco_freq_hz += nco_offset_hz;
  return ChainPlan::figure1(cfg, core::DatapathSpec::wide16());
}

std::vector<std::int64_t> make_feed(std::size_t n) {
  const auto cfg = core::DdcConfig::reference(10.0e6);
  return dsp::quantize_signal(dsp::make_tone(10.0025e6, cfg.input_rate_hz, n, 0.7), 12);
}

void expect_equal(const std::vector<IqSample>& got, const std::vector<IqSample>& want,
                  const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t k = 0; k < got.size(); ++k) {
    ASSERT_EQ(got[k].i, want[k].i) << label << " sample " << k;
    ASSERT_EQ(got[k].q, want[k].q) << label << " sample " << k;
  }
}

template <typename Pred>
bool wait_until(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + kTimeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// One swap of a replayed stream: applied after `block` feed blocks.
struct Swap {
  std::uint64_t block = 0;
  ChainPlan plan;
  SwapMode mode = SwapMode::kSplice;
};

/// The stream a native session must produce: the feed block by block, with
/// each swap applied at its recorded block boundary.
std::vector<IqSample> replay(const std::vector<std::int64_t>& feed,
                             const std::vector<Swap>& swaps) {
  auto backend = core::BackendRegistry::instance().create(backends::kNative);
  backend->configure(figure1_plan());
  std::vector<IqSample> out;
  std::size_t pos = 0;
  const auto run_to = [&](std::size_t end) {
    end = std::min(end, feed.size());
    if (end > pos)
      backend->process_block(std::span<const std::int64_t>(feed.data() + pos, end - pos),
                             out);
    pos = std::max(pos, end);
  };
  for (const auto& swap : swaps) {
    run_to(static_cast<std::size_t>(swap.block) * kBlock);
    backend->swap_plan(swap.plan, swap.mode);
  }
  run_to(feed.size());
  return out;
}

/// State shared by a test and every backend its probe twin creates.
struct Probe {
  std::atomic<int> inside{0};           ///< threads inside a backend call now
  std::atomic<bool> overlapped{false};  ///< ever two threads at once
  std::atomic<std::uint64_t> calls{0};  ///< process_block calls entered
  std::atomic<std::uint64_t> done{0};   ///< process_block calls returned
  std::uint64_t hold_at = ~std::uint64_t{0};  ///< call index parked until open()
  std::function<void()> on_swap;              ///< runs before the inner swap

  std::mutex mu;
  std::condition_variable cv;
  bool held = false;
  bool opened = false;
  std::thread::id held_thread;            // guarded by mu
  std::thread::id swap_thread;            // guarded by mu
  std::uint64_t blocks_at_swap = 0;       // guarded by mu

  bool wait_held() {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, kTimeout, [this] { return held; });
  }
  void open() {
    std::lock_guard<std::mutex> lock(mu);
    opened = true;
    cv.notify_all();
  }
  std::thread::id swapped_on() {
    std::lock_guard<std::mutex> lock(mu);
    return swap_thread;
  }
  std::thread::id held_on() {
    std::lock_guard<std::mutex> lock(mu);
    return held_thread;
  }
  std::uint64_t swapped_after() {
    std::lock_guard<std::mutex> lock(mu);
    return blocks_at_swap;
  }
};

/// Opens a probe's gate when the test leaves scope, so a failed assertion
/// never leaves a worker parked while the engine's destructor joins it.
/// Declare it after the engine: it is destroyed first.
struct OpenOnExit {
  Probe& probe;
  ~OpenOnExit() { probe.open(); }
};

class ProbeBackend final : public core::ArchitectureBackend {
 public:
  ProbeBackend(std::unique_ptr<core::ArchitectureBackend> inner,
               std::shared_ptr<Probe> probe)
      : inner_(std::move(inner)), probe_(std::move(probe)) {}

  [[nodiscard]] const std::string& name() const override { return inner_->name(); }
  [[nodiscard]] core::BackendCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  [[nodiscard]] core::DatapathSpec datapath() const override {
    return inner_->datapath();
  }
  [[nodiscard]] ChainPlan plan_for(const core::DdcConfig& config) const override {
    return inner_->plan_for(config);
  }
  void configure(const ChainPlan& plan) override {
    Inside guard(*probe_);
    inner_->configure(plan);
  }
  [[nodiscard]] bool is_configured() const override { return inner_->is_configured(); }
  [[nodiscard]] const ChainPlan& plan() const override {
    Inside guard(*probe_);
    return inner_->plan();
  }
  void process_block(std::span<const std::int64_t> in,
                     std::vector<IqSample>& out) override {
    Inside guard(*probe_);
    if (probe_->calls.fetch_add(1) == probe_->hold_at) {
      std::unique_lock<std::mutex> lock(probe_->mu);
      probe_->held = true;
      probe_->held_thread = std::this_thread::get_id();
      probe_->cv.notify_all();
      probe_->cv.wait(lock, [this] { return probe_->opened; });
    }
    inner_->process_block(in, out);
    probe_->done.fetch_add(1);
  }
  void reset() override {
    Inside guard(*probe_);
    inner_->reset();
  }
  [[nodiscard]] double output_scale() const override { return inner_->output_scale(); }
  void swap_plan(const ChainPlan& plan, SwapMode mode) override {
    Inside guard(*probe_);
    {
      std::lock_guard<std::mutex> lock(probe_->mu);
      probe_->swap_thread = std::this_thread::get_id();
      probe_->blocks_at_swap = probe_->done.load();
    }
    if (probe_->on_swap) probe_->on_swap();
    inner_->swap_plan(plan, mode);
  }

 private:
  struct Inside {
    explicit Inside(Probe& p) : probe(p) {
      if (probe.inside.fetch_add(1) != 0) probe.overlapped.store(true);
    }
    ~Inside() { probe.inside.fetch_sub(1); }
    Probe& probe;
  };

  std::unique_ptr<core::ArchitectureBackend> inner_;
  std::shared_ptr<Probe> probe_;
};

/// Registers `inner` wrapped in a probe under `name` (last registration
/// wins, so each repetition of a test gets its own probe).
std::string register_probe(const std::string& name, const std::string& inner,
                           const std::shared_ptr<Probe>& probe) {
  backends::register_decorated(
      name, inner, [probe](std::unique_ptr<core::ArchitectureBackend> wrapped) {
        return std::unique_ptr<core::ArchitectureBackend>(
            std::make_unique<ProbeBackend>(std::move(wrapped), probe));
      });
  return name;
}

EngineOptions options(int workers) {
  EngineOptions opts;
  opts.workers = workers;
  opts.block_samples = kBlock;
  opts.stall_timeout_ms = 0;  // a parked probe is not a stuck backend
  return opts;
}

class RetuneClaimTest : public ::testing::Test {
 protected:
  void SetUp() override { backends::register_builtin(); }
};

TEST_F(RetuneClaimTest, IdleSessionSwapsOnTheCallersThread) {
  // The only worker is parked inside the barrier session's fourth block, so
  // no worker can be inside a pass of the target: it is idle or queued, and
  // retune() claims its actor and swaps here.
  const auto feed = make_feed(kBlock * 16);
  auto target = std::make_shared<Probe>();
  auto barrier = std::make_shared<Probe>();
  barrier->hold_at = 3;
  StreamEngine engine(std::make_unique<VectorSource>(feed), options(1));
  OpenOnExit release{*barrier};
  auto a = engine.open(figure1_plan(),
                       register_probe("claim-idle-target", backends::kNative, target));
  auto b = engine.open(figure1_plan(),
                       register_probe("claim-idle-barrier", backends::kNative, barrier));
  engine.start();
  ASSERT_TRUE(barrier->wait_held());
  ASSERT_TRUE(a->retune(figure1_plan(40.0e3), SwapMode::kFlush));
  EXPECT_EQ(target->swapped_on(), std::this_thread::get_id());
  barrier->open();
  auto chunks = drain_all(engine, {a, b});
  engine.stop();

  const auto stats = a->stats();
  EXPECT_EQ(stats.retunes_applied, 1u);
  EXPECT_EQ(stats.retunes_inline, 1u);
  EXPECT_EQ(stats.last_retune_block, target->swapped_after());
  // The flush marker lands on the first block after the swap's boundary.
  for (const auto& chunk : chunks[0])
    EXPECT_EQ(chunk.gap_before == GapCause::kRetuneFlush,
              chunk.block_seq == stats.last_retune_block)
        << "block " << chunk.block_seq;
  expect_equal(flatten(chunks[0]),
               replay(feed, {{stats.last_retune_block, figure1_plan(40.0e3),
                              SwapMode::kFlush}}),
               "inline-retuned stream");
  expect_equal(flatten(chunks[1]), replay(feed, {}), "barrier stream");
  EXPECT_FALSE(target->overlapped.load());
}

TEST_F(RetuneClaimTest, MidPassRetuneLandsAfterTheWorkersBlock) {
  // A worker parked inside the session's third block holds the actor, so a
  // retune from another thread goes through the mailbox; the same worker
  // applies it right after that block.
  const auto feed = make_feed(kBlock * 16);
  auto probe = std::make_shared<Probe>();
  probe->hold_at = 2;
  StreamEngine engine(std::make_unique<VectorSource>(feed), options(2));
  OpenOnExit release{*probe};
  auto a = engine.open(figure1_plan(),
                       register_probe("claim-midpass", backends::kNative, probe));
  engine.start();
  ASSERT_TRUE(probe->wait_held());
  std::optional<bool> ok;
  std::thread::id client_thread;
  std::thread client([&] {
    client_thread = std::this_thread::get_id();
    ok = a->retune(figure1_plan(40.0e3), SwapMode::kSplice);
  });
  const bool posted = wait_until([&] { return a->retune_pending(); });
  probe->open();
  client.join();
  ASSERT_TRUE(posted);
  ASSERT_TRUE(ok.value_or(false));
  EXPECT_EQ(probe->swapped_on(), probe->held_on());
  EXPECT_NE(probe->swapped_on(), client_thread);
  auto chunks = drain_all(engine, {a});
  engine.stop();

  const auto stats = a->stats();
  EXPECT_EQ(stats.retunes_applied, 1u);
  EXPECT_EQ(stats.retunes_inline, 0u);
  EXPECT_EQ(stats.last_retune_block, probe->hold_at + 1);
  EXPECT_EQ(probe->swapped_after(), probe->hold_at + 1);
  expect_equal(flatten(chunks[0]),
               replay(feed, {{stats.last_retune_block, figure1_plan(40.0e3),
                              SwapMode::kSplice}}),
               "mailbox-retuned stream");
}

TEST_F(RetuneClaimTest, InlineSwapFaultIsEnteredBeforeTheActorIsReleased) {
  // The injected swap throw fires while retune() holds the idle target's
  // actor.  The swap first frees the only worker, which then runs the
  // target's next pass as soon as the actor is released: the quarantine must
  // already be in place, so no later block reaches the target's backend.
  const auto feed = make_feed(kBlock * 16);
  FaultInjector injector;
  FaultSpec spec;
  spec.kind = FaultKind::kThrow;
  spec.site = FaultSite::kSwap;
  spec.first = 0;
  const std::string faulty = injector.register_faulty_backend(backends::kNative, spec);
  auto target = std::make_shared<Probe>();
  auto barrier = std::make_shared<Probe>();
  barrier->hold_at = 3;
  target->on_swap = [barrier] { barrier->open(); };
  EngineOptions opts = options(1);
  opts.default_restart.policy = RestartPolicy::kQuarantine;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  OpenOnExit release{*barrier};
  auto a = engine.open(figure1_plan(), register_probe("claim-swapfault-target", faulty, target));
  auto b = engine.open(figure1_plan(),
                       register_probe("claim-swapfault-barrier", backends::kNative, barrier));
  engine.start();
  ASSERT_TRUE(barrier->wait_held());
  const std::uint64_t blocks_before = target->calls.load();
  EXPECT_FALSE(a->retune(figure1_plan(40.0e3), SwapMode::kSplice));
  EXPECT_EQ(target->swapped_on(), std::this_thread::get_id());
  EXPECT_EQ(a->health(), SessionHealth::kQuarantined);
  EXPECT_EQ(a->last_fault().cause, FaultCause::kBackendSwap);
  auto chunks = drain_all(engine, {a, b});
  engine.stop();

  EXPECT_EQ(target->calls.load(), blocks_before);
  const auto stats = a->stats();
  EXPECT_EQ(stats.retunes_applied, 0u);
  EXPECT_EQ(stats.retunes_inline, 0u);
  EXPECT_EQ(stats.retunes_rejected, 0u);  // a fault, not a rejection
  EXPECT_EQ(stats.faults, 1u);
  EXPECT_EQ(injector.counters().throws_fired, 1u);
  expect_equal(flatten(chunks[1]), replay(feed, {}), "barrier stream");
}

TEST_F(RetuneClaimTest, RetunesRaceStopStartWithoutOverlappingBackendCalls) {
  // One thread retunes in a loop (splice and flush alternating) while
  // another cycles stop()/start() and this thread polls.  A 4-chunk output
  // ring keeps parking the session, so retunes find it idle, queued,
  // mid-pass and detached.  No two threads may ever be inside the backend,
  // and the stream must replay every swap at its recorded boundary.
  const auto feed = make_feed(kBlock * 400);
  auto probe = std::make_shared<Probe>();
  EngineOptions opts = options(2);
  opts.session_output_chunks = 4;
  StreamEngine engine(std::make_unique<VectorSource>(feed), opts);
  auto a = engine.open(figure1_plan(),
                       register_probe("claim-stress", backends::kNative, probe));
  constexpr int kRetunes = 100;
  std::vector<Swap> swaps;
  int failed_retunes = 0;
  std::atomic<bool> retuning{true};
  engine.start();
  std::thread retuner([&] {
    for (int k = 0; k < kRetunes; ++k) {
      const auto mode = k % 2 == 0 ? SwapMode::kSplice : SwapMode::kFlush;
      const auto plan = figure1_plan(k % 2 == 0 ? 40.0e3 : 0.0);
      if (!a->retune(plan, mode)) ++failed_retunes;
      swaps.push_back({a->stats().last_retune_block, plan, mode});
    }
    retuning.store(false);
  });
  std::thread cycler([&] {
    while (retuning.load()) {
      engine.stop();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      engine.start();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  std::vector<StreamChunk> chunks;
  while (retuning.load()) {
    for (auto& chunk : a->poll()) chunks.push_back(std::move(chunk));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  retuner.join();
  cycler.join();
  auto rest = drain_all(engine, {a});
  for (auto& chunk : rest[0]) chunks.push_back(std::move(chunk));
  engine.stop();

  EXPECT_EQ(failed_retunes, 0);
  EXPECT_FALSE(probe->overlapped.load());
  const auto stats = a->stats();
  EXPECT_EQ(stats.faults, 0u);
  EXPECT_EQ(stats.retunes_applied, static_cast<std::uint64_t>(kRetunes));
  EXPECT_LE(stats.retunes_inline, stats.retunes_applied);
  expect_equal(flatten(chunks), replay(feed, swaps), "stress stream");
}

}  // namespace
}  // namespace twiddc::stream
