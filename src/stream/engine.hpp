// twiddc::stream -- the streaming session engine.
//
// Turns the backend layer into a server: ONE wideband Source feed drives N
// concurrent Sessions, each lowered onto any registered
// ArchitectureBackend -- the same antenna samples can simultaneously feed a
// GC4016 slot, a Montium mapping and the SIMD native pipeline.
//
// Threading model (see DESIGN.md "The stream layer"):
//
//   pump thread   reads Source blocks and fans each one out (zero-copy, a
//                 shared_ptr per session) to every open session's input
//                 ring, honouring the session's backpressure policy, then
//                 nudges that session's actor;
//   scheduler     a common::TaskScheduler of `workers` threads sharing one
//                 FIFO run queue.  Each session is a cooperative actor:
//                 when it has input it is one queued task, taken by
//                 whichever worker is free; a session that exhausts its
//                 weighted quantum re-queues behind every other queued
//                 task.  Sessions with no work are in no queue at all --
//                 scheduling cost follows *active* sessions, not open ones.
//   client        opens/polls/retunes/closes sessions from its own threads.
//
// The engine is restartable: construct, open sessions (any time), start(),
// stream, stop(), and -- new in the scheduler rework -- start() again to
// resume serving from the current source position.  Queued output remains
// pollable while stopped; queued input survives a stop and is consumed on
// the next run.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.hpp"
#include "src/common/task_scheduler.hpp"
#include "src/stream/session.hpp"
#include "src/stream/source.hpp"

namespace twiddc::stream {

struct EngineOptions {
  /// Worker threads.  <= 0 resolves at construction to the TWIDDC_WORKERS
  /// environment variable when set (and positive), hardware_concurrency
  /// otherwise.  Fixed for the engine's lifetime: every start() spawns
  /// exactly this many unpinned workers.
  int workers = 0;
  std::size_t block_samples = 4096; ///< feed samples per FeedBlock
  std::size_t session_queue_blocks = 8;    ///< input-ring capacity (blocks)
  std::size_t session_output_chunks = 256; ///< output-ring capacity (chunks)
  /// Weighted-round-robin quantum: a weight-1 session processes at most
  /// this many feed blocks per scheduling pass before yielding its worker
  /// (Session::set_weight scales it).  Bounds how long any one backlogged
  /// session can hold a worker while others are runnable.
  std::size_t session_quantum_blocks = 4;

  /// Restart policy stamped onto every session at open() (Session::
  /// set_restart_policy overrides per session).  Default kFail: a backend
  /// exception closes that one session, typed via last_fault().
  RestartOptions default_restart;
  /// Watchdog tick (microseconds; 0 disables the thread).  The watchdog
  /// drives timed kBackoff restarts, stall quarantine and overload shedding;
  /// with it disabled, backoff restarts still happen on poll()/feed nudges.
  std::size_t watchdog_interval_us = 1000;
  /// Quarantine a session whose progress heartbeat freezes mid-block for
  /// this long (a backend stuck inside process_block).  0 disables.  The
  /// stuck pass still occupies its worker thread until the call returns --
  /// quarantine unblocks the pump and the drains, not the hostage worker.
  std::size_t stall_timeout_ms = 10000;
  /// Overload shedding (off by default: kBlock's stall-everyone semantics
  /// are the conservative contract).  When enabled, the watchdog sheds the
  /// input backlog of the lowest-weight sessions first -- see DESIGN.md
  /// "Fault containment & graceful degradation".
  bool shed_enabled = false;
  /// Shed when aggregate queued input exceeds this fraction of aggregate
  /// input-ring capacity across open sessions.
  double shed_queue_fraction = 0.75;
  /// Also shed when the pump has been stuck in one session's kBlock
  /// enqueue for this long (a dead client holding the whole feed hostage).
  std::size_t shed_pump_stall_ms = 50;
};

class StreamEngine {
 public:
  /// The engine owns the feed.  Options are clamped to sane minimums.
  explicit StreamEngine(std::unique_ptr<Source> source, EngineOptions options = {});
  ~StreamEngine();  // stop()s if still running

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Lowers `plan` onto a fresh instance of the named registered backend
  /// and opens a session for it.  Throws ConfigError for an unknown backend
  /// name and core::LoweringError when the plan does not lower; nothing is
  /// opened in either case.  Legal before, during and between runs; a
  /// session opened mid-stream joins at the current feed position.
  std::shared_ptr<Session> open(const core::ChainPlan& plan,
                                const std::string& backend_name,
                                BackpressurePolicy policy = BackpressurePolicy::kBlock);

  /// Spawns the scheduler and the pump.  Throws if already running; legal
  /// again after stop() -- the feed resumes at the current source position
  /// and sessions keep their state (a restarted stream is gap-free).
  void start();
  /// Stops the pump and the scheduler.  Queued input stays queued (the
  /// next start() consumes it); queued output remains pollable.  Waiters
  /// in drain helpers return once their output rings are empty.  Idempotent.
  void stop();
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }

  /// True once the Source reported end of stream (never true after stop()
  /// cut the feed short -- check running() too).
  [[nodiscard]] bool feed_exhausted() const {
    return feed_done_.load(std::memory_order_acquire);
  }

  /// True when nothing more will reach `session`'s consumer: the feed is
  /// exhausted (or the session closed), every queued block is processed,
  /// and every produced chunk has been polled.  While the engine is
  /// stopped, only the output ring counts (queued input cannot progress).
  [[nodiscard]] bool finished(const Session& session) const;

  [[nodiscard]] std::size_t session_count() const;
  [[nodiscard]] std::uint64_t blocks_pumped() const {
    return blocks_pumped_.load(std::memory_order_acquire);
  }
  /// The clamped options; options().workers is the resolved worker count.
  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// The fault that ended the feed, if Source::read ever threw: the pump
  /// contains a source exception as an engine-level fault (the feed ends as
  /// if exhausted, sessions drain cleanly) instead of letting it escape a
  /// detached thread.  cause == kNone when the feed is healthy.
  [[nodiscard]] FaultInfo source_fault() const;

  /// Watchdog/shedding counters (engine totals; per-session counters are in
  /// each session's stats()).
  [[nodiscard]] std::uint64_t shed_events() const {
    return shed_events_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t shed_blocks() const {
    return shed_blocks_.load(std::memory_order_relaxed);
  }

  /// Serving snapshot as one JSON object: engine totals (including
  /// scheduler counters) plus one entry per session (stats + derived
  /// throughput).  Poll-safe from any thread.
  [[nodiscard]] std::string stats_json() const;

  /// Eventcount for output-side waiters (the drain helpers): every chunk
  /// delivery, feed exhaustion, stop() and session close bumps it.  Read
  /// the token BEFORE polling, then wait(token) when nothing was polled --
  /// any of those events in between makes the wait return immediately.
  [[nodiscard]] std::uint32_t output_token() const {
    return output_epoch_->load(std::memory_order_acquire);
  }
  void wait_output(std::uint32_t token) const {
    output_epoch_->wait(token, std::memory_order_acquire);
  }

 private:
  friend class Session;

  void pump_loop();
  /// One scheduling pass over `session`: claim it, service up to its
  /// weighted quantum, then park / re-queue it per the actor protocol.
  /// Tasks may read sched_: stop() joins the workers before resetting it.
  void run_session(const std::shared_ptr<Session>& session);
  /// Queues a run_session task for the session at the tail of the run
  /// queue, behind every task already queued (the fairness edge).
  void submit_session_task(const std::shared_ptr<Session>& session);
  /// The notify half of the actor protocol: idempotent, lock-free, never
  /// loses a request, never double-runs a session.  Caller must know the
  /// scheduler is alive (pump; or via EngineLink::scheduler_live).
  void schedule_session(Session& session);
  /// Drains up to `budget` input blocks through the backend.  Returns true
  /// when the session should be re-queued immediately (quantum exhausted
  /// with input still queued).
  bool service(Session& session, std::size_t budget);
  /// kBackoff sessions only: if the timed retry is due, re-lowers the plan
  /// through backend configure (hence the process-wide CompiledPlanCache)
  /// and returns true on recovery.  Worker thread (it touches the backend).
  bool try_restart(Session& session);
  /// The watchdog thread: timed kBackoff restarts, stall quarantine,
  /// overload shedding.  Runs between start() and stop().
  void watchdog_loop();
  /// One shedding decision: picks the lowest-weight open session with
  /// queued input (ties broken toward the newest id) and discards its
  /// backlog.  Returns false when nobody is sheddable.
  bool shed_one(const std::vector<std::shared_ptr<Session>>& sessions);
  /// Discards `session`'s queued input (watchdog thread; ring pops are
  /// MPMC-safe against the worker).  Returns the blocks discarded.
  std::uint64_t shed_backlog(Session& session);
  /// Returns false only when stop() aborted a kBlock wait mid-push: the
  /// pump records the fan-out position so the next run resumes it.
  bool enqueue(Session& session, const FeedBlock& block);
  /// Tries to hand the session's stashed pending_chunk_ to the output ring
  /// (per its backpressure policy).  Returns false only when a kBlock ring
  /// is full -- the chunk stays stashed and the session parks until poll().
  bool deliver_chunk(Session& session);
  /// Bumps the output eventcount.  Called on EVERY transition an output
  /// waiter can be blocked on: chunk delivery or discard, the end of a
  /// service pass (the busy_ -> false edge that completes finished()),
  /// feed exhaustion and stop; Session::close() bumps too.
  void notify_output();
  [[nodiscard]] std::vector<std::shared_ptr<Session>> snapshot() const;

  EngineOptions options_;
  std::unique_ptr<Source> source_;
  std::shared_ptr<EngineLink> link_;
  std::thread pump_thread_;
  std::thread watchdog_thread_;
  /// Wakes the watchdog out of its tick sleep at stop() (and re-arms it).
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;

  /// Serialises start()/stop()/destruction (and the scheduler-counter part
  /// of stats_json).  Never held while scheduling work.
  mutable std::mutex lifecycle_mu_;
  std::unique_ptr<common::TaskScheduler> sched_;  // live between start/stop
  common::TaskScheduler::Stats sched_stats_{};    // last run's totals

  mutable std::mutex sessions_mu_;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::uint64_t next_session_id_ = 0;
  /// Guarded by sessions_mu_ so open() and the start()/stop() attach/detach
  /// passes agree on whether a new session gets a worker.
  bool workers_live_ = false;
  /// Bumped by open() and close(): the pump re-snapshots its fan-out list
  /// only when this changes, instead of copying the session list under the
  /// mutex on every block.
  std::atomic<std::uint64_t> sessions_gen_{1};

  /// A feed block whose fan-out stop() interrupted (a kBlock ring was full
  /// and the run ended before space appeared).  The next run's pump
  /// delivers it to the sessions that have not received it yet before
  /// reading fresh feed -- restart loses nothing.  Pump-only; the pump is
  /// joined whenever start()/stop() run, so no locking.
  struct PendingFanout {
    FeedBlock block;
    std::vector<std::uint64_t> served;  ///< session ids that already got it
  };
  std::optional<PendingFanout> carry_;

  std::shared_ptr<std::atomic<std::uint32_t>> output_epoch_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{true};  ///< false only while a run is live
  std::atomic<bool> feed_done_{false};
  std::atomic<std::uint64_t> blocks_pumped_{0};

  /// Engine-level fault record (Source::read threw); guarded by
  /// source_fault_mu_, written only by the pump.
  mutable std::mutex source_fault_mu_;
  FaultInfo source_fault_{};
  std::atomic<std::uint64_t> source_faults_{0};

  // Watchdog / shedding totals (cumulative across runs; sessions that are
  // closed and pruned keep their share here even after they leave
  // stats_json's per-session list).
  std::atomic<std::uint64_t> watchdog_ticks_{0};
  std::atomic<std::uint64_t> stall_quarantines_{0};
  std::atomic<std::uint64_t> shed_events_{0};
  std::atomic<std::uint64_t> shed_blocks_{0};
  std::atomic<std::uint64_t> shed_samples_{0};

  /// Pump kBlock-wait publication for the watchdog's pump-stall shed
  /// trigger: the session id + 1 the pump is parked on (0 = not parked) and
  /// when it parked (steady_clock nanos).
  std::atomic<std::uint64_t> pump_stalled_on_{0};
  std::atomic<std::int64_t> pump_stall_since_ns_{0};
  /// Rewritten by every start(); guarded by lifecycle_mu_ (the engine is
  /// restartable, so there is no publish-once story for this field).
  std::chrono::steady_clock::time_point run_start_time_{};
  std::atomic<double> streamed_elapsed_s_{0.0};  ///< total across past runs

  // Latency distributions (nanosecond samples; rendered in milliseconds by
  // stats_json's "latency" object).  Always on: a record() is two relaxed
  // fetch_adds against work that spans thousands of samples.
  metrics::Histogram service_pass_ns_;  ///< one worker service pass
  metrics::Histogram pump_block_ns_;    ///< one feed block's full fan-out
};

/// The standard client loop: polls every session until the feed is
/// exhausted and all sessions are finished, handing each chunk (with its
/// session's index in `sessions`) to `on_chunk` as it arrives.  Keeps
/// consuming while the engine runs, so kBlock sessions cannot deadlock on a
/// full output ring.  The engine must be start()ed and no session paused,
/// or this never returns.
void drain_each(StreamEngine& engine,
                const std::vector<std::shared_ptr<Session>>& sessions,
                const std::function<void(std::size_t, StreamChunk&&)>& on_chunk);

/// drain_each, buffering: returns each session's chunks in stream order.
std::vector<std::vector<StreamChunk>> drain_all(
    StreamEngine& engine, const std::vector<std::shared_ptr<Session>>& sessions);

/// Concatenates the IQ payloads of polled chunks (gap metadata dropped).
std::vector<core::IqSample> flatten(const std::vector<StreamChunk>& chunks);

}  // namespace twiddc::stream
