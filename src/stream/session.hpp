// twiddc::stream -- one live DDC stream over a registered backend.
//
// A Session is one user's channel of the shared wideband feed: the engine
// lowers the session's ChainPlan onto the named ArchitectureBackend at
// open() time and from then on the session is a pair of lock-free rings
// around that backend --
//
//   pump thread  -> input ring (FeedBlock)  -> worker -> backend
//   worker       -> output ring (StreamChunk) -> client poll()
//
// Scheduling: a session is a cooperative actor on the engine's
// common::TaskScheduler.  Its pass is a task on the one shared run queue,
// taken by whichever worker is free; it runs at most `quantum x weight`
// feed blocks per pass before re-queueing behind every other queued task.
// While a session has no input it is in no run queue and costs nothing.
//
// Threading contract: poll(), retune(), set_paused(), set_weight() and
// close() are client calls (any one thread); the backend itself is touched
// only by the holder of the session's actor (sched_state_): the worker
// running the session's pass, or a client inside retune() that claimed the
// actor while no pass was running.  Backpressure when a ring fills is
// per-session and explicit:
//
//   kBlock      the producer waits -- a slow consumer throttles the pump
//               (and through it the whole feed: conservative end-to-end
//               flow control, no data loss);
//   kDropOldest the producer evicts the oldest queued element and the loss
//               surfaces in the stream as gap metadata on the next chunk
//               plus drop counters in the stats.
//
// Runtime retunes ride the backend swap_plan() glitch contract: a kFlush
// retune surfaces as GapCause::kRetuneFlush on the first post-swap chunk (a
// clean gap: the backend restarts its settling transient), a kSplice retune
// is gap-free by construction.  See DESIGN.md "The stream layer".
//
// Fault containment: exceptions a backend throws during configure/
// process_block/swap_plan are caught at the session boundary and walk the
// SessionHealth state machine per the session's RestartPolicy -- they never
// reach another session, the pump, or the client.  See DESIGN.md "Fault
// containment & graceful degradation".
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/backend.hpp"
#include "src/core/pipeline.hpp"
#include "src/stream/ring.hpp"

namespace twiddc::stream {

enum class BackpressurePolicy { kBlock, kDropOldest };

/// Why a chunk's first sample does not continue the previous chunk's stream.
enum class GapCause : std::uint8_t {
  kNone,         ///< contiguous
  kDropOldest,   ///< feed blocks were evicted under kDropOldest backpressure
  kRetuneFlush,  ///< a kFlush retune restarted the backend's transient
  kShed,         ///< the watchdog shed this session's input backlog (overload)
  kFault,        ///< the session faulted and was restarted; the faulting
                 ///< block (and any blocks lost while down) are gone
};

/// Session fault-state machine (see DESIGN.md "Fault containment"):
///
///   kHealthy --fault--> per RestartPolicy:
///     kFail               -> kFaulted (terminal; session is closed)
///     kRestartWithBackoff -> kBackoff -> (restart ok) -> kHealthy
///                                     -> (restarts exhausted) -> kQuarantined
///     kQuarantine         -> kQuarantined (parked; restart() revives)
///
/// A kQuarantined session stays open: queued output remains pollable and an
/// explicit restart() moves it back to kBackoff for an immediate retry.
enum class SessionHealth : std::uint8_t {
  kHealthy = 0,
  kBackoff = 1,      ///< faulted; a timed re-configure is scheduled
  kQuarantined = 2,  ///< parked by policy, exhausted restarts, or the watchdog
  kFaulted = 3,      ///< terminal (kFail policy); the session is closed
};

/// What the session boundary does with a caught backend/source exception.
enum class RestartPolicy : std::uint8_t {
  kFail = 0,                ///< close the session (the pre-supervision behaviour,
                            ///< with the fault now typed instead of swallowed)
  kRestartWithBackoff = 1,  ///< re-lower the plan (through the process-wide
                            ///< CompiledPlanCache) after a bounded exponential
                            ///< backoff and resume at the next block boundary
  kQuarantine = 2,          ///< park the session; an operator restart() revives
};

struct RestartOptions {
  RestartPolicy policy = RestartPolicy::kFail;
  int max_restarts = 8;  ///< kRestartWithBackoff: quarantine after this many
  std::chrono::milliseconds initial_backoff{1};
  std::chrono::milliseconds max_backoff{1000};  ///< backoff doubles up to this
};

[[nodiscard]] const char* to_string(GapCause cause);
[[nodiscard]] const char* to_string(BackpressurePolicy policy);
[[nodiscard]] const char* to_string(SessionHealth health);
[[nodiscard]] const char* to_string(RestartPolicy policy);

/// One block of the shared wideband feed.  The sample buffer is shared
/// (not copied) between every session the pump fans it out to.
struct FeedBlock {
  std::uint64_t seq = 0;  ///< feed-global block index
  std::shared_ptr<const std::vector<std::int64_t>> samples;
};

/// One polled slice of a session's output stream: the backend outputs of
/// one feed block, plus discontinuity metadata.
///
/// Input-side losses and flush retunes are marked exactly: the first chunk
/// after the discontinuity carries the cause.  Output-side losses (a
/// kDropOldest output ring evicting queued chunks, metadata included) are
/// forwarded onto the next *produced* chunk -- the position is approximate
/// (survivors pushed before the eviction stay unmarked; block_seq gives the
/// exact surviving blocks), and losses after the final chunk appear only in
/// the stats counters.
struct StreamChunk {
  std::uint64_t block_seq = 0;  ///< feed block that produced this chunk
  GapCause gap_before = GapCause::kNone;
  std::uint64_t dropped_feed_samples = 0;    ///< feed samples lost (kDropOldest)
  std::uint64_t dropped_output_samples = 0;  ///< IQ samples lost to output eviction
  std::vector<core::IqSample> iq;
};

/// Monotonic per-session counters (all since open()).
struct SessionStats {
  std::uint64_t blocks_enqueued = 0;   ///< feed blocks accepted into the input ring
  std::uint64_t samples_enqueued = 0;
  std::uint64_t blocks_processed = 0;  ///< feed blocks run through the backend
  std::uint64_t samples_processed = 0;
  std::uint64_t samples_out = 0;       ///< IQ samples produced
  std::uint64_t chunks_polled = 0;
  std::uint64_t input_drop_blocks = 0;   ///< kDropOldest evictions (input ring)
  std::uint64_t input_drop_samples = 0;
  std::uint64_t output_drop_chunks = 0;  ///< kDropOldest evictions (output ring)
  std::uint64_t output_drop_samples = 0;
  std::uint64_t max_queue_depth = 0;   ///< input-ring high-water mark (blocks)
  std::uint64_t retunes_applied = 0;   ///< swaps applied, inline or by a worker
  std::uint64_t retunes_inline = 0;    ///< of those, swapped on the caller's thread
  std::uint64_t retunes_rejected = 0;
  std::uint64_t gaps = 0;              ///< discontinuities surfaced in chunks
  std::uint64_t last_retune_block = 0; ///< blocks_processed when the last
                                       ///< retune was applied
  std::uint64_t service_passes = 0;    ///< scheduler passes that ran this session
  std::uint64_t faults = 0;            ///< exceptions caught at the session boundary
  std::uint64_t restarts = 0;          ///< successful kRestartWithBackoff recoveries
  std::uint64_t shed_events = 0;       ///< watchdog backlog sheds
  std::uint64_t shed_samples = 0;      ///< feed samples discarded by shedding
};

class StreamEngine;

/// Shared between an engine and its sessions, outliving the engine: client
/// calls on a session handle (poll, retune, close) that need a scheduling
/// nudge look the engine up through here.  The engine flips scheduler_live
/// around start()/stop() and nulls engine in its destructor, all under mu.
struct EngineLink {
  std::mutex mu;
  StreamEngine* engine = nullptr;  // guarded by mu
  bool scheduler_live = false;     // guarded by mu
};

class Session : public std::enable_shared_from_this<Session> {
 public:
  // Sessions are created by StreamEngine::open() and shared with the
  // client; the type is neither copyable nor movable.
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] const std::string& backend_name() const { return backend_name_; }
  /// Name of the currently configured plan (changes on retune).
  [[nodiscard]] std::string plan_name() const;
  [[nodiscard]] BackpressurePolicy policy() const { return policy_; }

  /// Drains up to `max_chunks` chunks (0 = everything queued) from the
  /// output ring.  Still legal after close() / engine stop, so queued
  /// output is never stranded.
  [[nodiscard]] std::vector<StreamChunk> poll(std::size_t max_chunks = 0);

  /// Swaps the plan at a feed-block boundary via the backend's swap_plan()
  /// glitch contract.  While no worker is inside a pass (the session is
  /// idle, queued, parked on a full output ring, or the engine is stopped)
  /// the caller claims the session's actor and swaps on its own thread at
  /// the boundary the last pass left; while a worker is mid-pass the
  /// request goes through a one-slot mailbox that the worker applies after
  /// its current block.  Blocks until the swap is applied or rejected;
  /// returns false -- with the diagnostic in last_error() -- when the
  /// backend cannot lower the new plan (the old plan keeps streaming), the
  /// swap broke the backend (a kBackendSwap fault), or the session is
  /// closed.
  bool retune(const core::ChainPlan& plan,
              core::SwapMode mode = core::SwapMode::kFlush);

  /// A paused session stays open and keeps receiving feed blocks, but its
  /// worker stops consuming them, so the input ring fills and the session's
  /// backpressure policy takes effect (kBlock stalls the pump, kDropOldest
  /// sheds the oldest blocks).  For consumers that must stall a stream
  /// without closing it, and for deterministic backpressure tests.
  void set_paused(bool paused);
  [[nodiscard]] bool paused() const {
    return paused_.load(std::memory_order_acquire);
  }

  /// Weighted-round-robin share: a session processes at most
  /// `EngineOptions::session_quantum_blocks x weight` feed blocks per
  /// scheduling pass before yielding its worker to the other runnable
  /// sessions.  Clamped to [1, 1024]; default 1.
  void set_weight(int weight);
  [[nodiscard]] int weight() const {
    return weight_.load(std::memory_order_acquire);
  }

  /// Stops the stream: the pump stops feeding it, queued input is
  /// discarded, queued output stays pollable.  The engine forgets the
  /// session on its next pump cycle (it leaves stats_json()); this handle
  /// stays valid.  Idempotent.
  void close();
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  /// Instantaneous queue depths (approximate while streams are in flight).
  [[nodiscard]] std::size_t queued_input_blocks() const { return in_ring_.size(); }
  [[nodiscard]] std::size_t queued_output_chunks() const { return out_ring_.size(); }

  /// True while a retune() waits in the mailbox for the worker that is
  /// mid-pass on this session (instantaneous, like the queue depths).
  [[nodiscard]] bool retune_pending() const;

  /// Diagnostic of the last rejected retune or backend failure.
  [[nodiscard]] std::string last_error() const;

  [[nodiscard]] SessionStats stats() const;

  /// Current position in the fault-state machine.
  [[nodiscard]] SessionHealth health() const {
    return static_cast<SessionHealth>(health_.load(std::memory_order_acquire));
  }

  /// The last fault caught at this session's boundary (cause kNone if never
  /// faulted).  Poll-safe from any thread.
  [[nodiscard]] FaultInfo last_fault() const;

  /// Sets what the session boundary does with the NEXT caught exception.
  /// Takes effect immediately; legal any time (default comes from
  /// EngineOptions::default_restart).
  void set_restart_policy(const RestartOptions& options);
  [[nodiscard]] RestartOptions restart_policy() const;

  /// Operator revival of a kQuarantined (or still-backing-off) session: moves
  /// it to kBackoff with an immediate retry, so the next service pass
  /// re-lowers the plan and resumes.  Returns false when the session is
  /// closed or healthy.  The restart counter is NOT reset; set_restart_policy
  /// first to grant a fresh budget.
  bool restart();

 private:
  friend class StreamEngine;

  /// Actor scheduling states (sched_state_).  A worker claims the actor by
  /// CAS kScheduled -> kRunning (so a duplicate queued task is a harmless
  /// no-op); retune() claims it from kIdle or kScheduled.  Anyone may mark
  /// a running session dirty, which makes the holder re-queue it.  The
  /// protocol never loses a wakeup and never lets two threads hold one
  /// session's actor.
  static constexpr int kIdle = 0;       ///< not queued, no service requested
  static constexpr int kScheduled = 1;  ///< a task is in the run queue
  static constexpr int kRunning = 2;    ///< held: a worker's pass or a retune()
  static constexpr int kRunningDirty = 3;  ///< running + re-service requested

  struct AtomicStats {
    std::atomic<std::uint64_t> blocks_enqueued{0};
    std::atomic<std::uint64_t> samples_enqueued{0};
    std::atomic<std::uint64_t> blocks_processed{0};
    std::atomic<std::uint64_t> samples_processed{0};
    std::atomic<std::uint64_t> samples_out{0};
    std::atomic<std::uint64_t> chunks_polled{0};
    std::atomic<std::uint64_t> input_drop_blocks{0};
    std::atomic<std::uint64_t> input_drop_samples{0};
    std::atomic<std::uint64_t> output_drop_chunks{0};
    std::atomic<std::uint64_t> output_drop_samples{0};
    std::atomic<std::uint64_t> max_queue_depth{0};
    std::atomic<std::uint64_t> retunes_applied{0};
    std::atomic<std::uint64_t> retunes_inline{0};
    std::atomic<std::uint64_t> retunes_rejected{0};
    std::atomic<std::uint64_t> gaps{0};
    std::atomic<std::uint64_t> last_retune_block{0};
    std::atomic<std::uint64_t> service_passes{0};
    std::atomic<std::uint64_t> faults{0};
    std::atomic<std::uint64_t> restarts{0};
    std::atomic<std::uint64_t> shed_events{0};
    std::atomic<std::uint64_t> shed_samples{0};
  };

  struct RetuneRequest {
    core::ChainPlan plan;
    core::SwapMode mode = core::SwapMode::kFlush;
  };

  Session(std::uint64_t id, std::unique_ptr<core::ArchitectureBackend> backend,
          BackpressurePolicy policy, std::size_t queue_blocks,
          std::size_t output_chunks, std::shared_ptr<EngineLink> link,
          std::shared_ptr<std::atomic<std::uint32_t>> output_epoch);

  /// Applies the mailbox's retune if one is queued.  Worker thread, inside
  /// a pass.  Returns true when a swap was applied or rejected.
  bool apply_pending_retune();
  /// The kFlush/kSplice application itself, by the actor's holder with
  /// control_mu_ held; sets retune_result_.  A swap_plan that throws
  /// anything but a ConfigError broke the backend: the kBackendSwap fault
  /// is entered here, before the holder releases the actor, and the return
  /// value tells the caller to run finish_fault() once control_mu_ is
  /// released.
  bool apply_swap_locked(const core::ChainPlan& plan, core::SwapMode mode,
                         bool inline_swap);
  /// retune()'s claim: kIdle or kScheduled -> kRunning by CAS.  False while
  /// a worker holds the actor.
  bool try_claim_actor();

  /// Converts a caught exception into a FaultInfo and walks the fault-state
  /// machine per restart_opts_.  Callable from any thread (the worker's
  /// catch sites, the watchdog); never throws.
  void fault(FaultCause cause, std::string what);
  /// Forces kQuarantined regardless of policy (the watchdog's stall path:
  /// a stuck backend cannot be restarted, only isolated).
  void quarantine(FaultCause cause, std::string what);
  /// Records a watchdog backlog shed: `samples` feed samples were discarded
  /// from the input ring.  The loss surfaces on the next processed chunk as
  /// GapCause::kShed.
  void note_shed(std::uint64_t samples);
  /// kBackoff bookkeeping for the watchdog / service pass: whether the timed
  /// retry is due at `now`.
  [[nodiscard]] bool restart_due(std::chrono::steady_clock::time_point now) const;
  /// kBackoff -> kHealthy after a successful re-configure (worker thread).
  void complete_restart();
  /// Shared tail of fault()/quarantine(): enter_fault_locked under
  /// control_mu_, then finish_fault().
  void apply_fault_transition(FaultInfo info, RestartPolicy policy);
  /// Records `info` and moves health_ per `policy`; control_mu_ must be held.
  void enter_fault_locked(FaultInfo info, RestartPolicy policy);
  /// The unlock-side effects of a fault transition: close a kFaulted
  /// session, drop a quarantined one's backlog, wake the pump and drains.
  void finish_fault();

  /// Engine start/stop handshake.  Attaching re-arms the actor to kIdle (a
  /// stop() may have dropped queued tasks mid-protocol) under control_mu_,
  /// so it never overwrites a claim retune() holds; detaching wakes a
  /// retune() parked on the mailbox so it claims the actor instead.
  void set_attached(bool attached);

  /// Asks the engine (if alive and running) to schedule a service pass for
  /// this session.  The client-side scheduling nudge.
  void request_service();

  void note_queue_depth(std::uint64_t depth);

  const std::uint64_t id_;
  const std::string backend_name_;
  std::string plan_name_;  // guarded by control_mu_ (retunes rename it)
  const BackpressurePolicy policy_;

  std::unique_ptr<core::ArchitectureBackend> backend_;
  BoundedRing<FeedBlock> in_ring_;
  BoundedRing<StreamChunk> out_ring_;

  std::atomic<int> weight_{1};     ///< WRR quantum multiplier
  std::atomic<int> sched_state_{kIdle};

  std::atomic<bool> closed_{false};
  std::atomic<bool> paused_{false};
  std::atomic<bool> busy_{false};     ///< worker mid-block (for drain checks)
  std::atomic<bool> detached_{true};  ///< no workers attached (engine not running)
  std::atomic<std::uint64_t> pending_dropped_samples_{0};
  std::atomic<std::uint8_t> health_{0};  ///< SessionHealth (kHealthy)
  /// Progress heartbeat: bumped by the worker once per service-loop
  /// iteration.  The watchdog flags a session whose heartbeat freezes while
  /// busy_ stays up (a backend stuck inside process_block).
  std::atomic<std::uint64_t> heartbeat_{0};
  /// Feed samples the watchdog shed from the input ring, not yet surfaced
  /// in-stream (watchdog writes, worker drains onto the next chunk).
  std::atomic<std::uint64_t> pending_shed_samples_{0};

  // Actor-holder state: only the holder of sched_state_'s claim (a
  // worker's pass or an inline retune) touches it, and holders are ordered
  // through the claim's acquire/release protocol, so no further
  // synchronisation is needed.
  bool pending_flush_gap_ = false;
  bool pending_fault_gap_ = false;  ///< first post-restart chunk marks kFault
  std::uint64_t pending_fault_lost_samples_ = 0;  ///< feed samples the faulted
                                                  ///< block(s) took with them
  std::uint64_t expected_seq_ = 0;  ///< next feed seq if the stream is contiguous
  bool have_seq_ = false;           ///< expected_seq_ valid (a block was processed)
  std::uint64_t pending_output_drop_samples_ = 0;  ///< evicted IQ, unreported
  std::uint64_t pending_evicted_feed_samples_ = 0;  ///< feed-drop counts an
                                                    ///< evicted chunk carried
  bool pending_output_marker_lost_ = false;  ///< an evicted chunk carried a
                                             ///< kRetuneFlush marker
  /// A built chunk the kBlock output ring had no room for.  The worker
  /// stashes it and moves on (a full output ring parks the *session*,
  /// never the worker); delivery is retried when the client polls.
  /// has_pending_chunk_ mirrors it for finished() checks.
  std::optional<StreamChunk> pending_chunk_;
  std::atomic<bool> has_pending_chunk_{false};

  // Serializes whole retune() calls (the mailbox below is one slot).
  std::mutex retune_serial_mu_;
  // Retune mailbox + error string, guarded by control_mu_.  retune() holds
  // control_mu_ from its claim of the actor to the release.
  mutable std::mutex control_mu_;
  std::condition_variable control_cv_;
  std::optional<RetuneRequest> pending_retune_;
  std::optional<bool> retune_result_;
  std::string last_error_;
  // Fault bookkeeping, guarded by control_mu_ (watchdog reads are per-tick,
  // so a shared mutex with the retune mailbox costs nothing measurable).
  FaultInfo last_fault_;
  RestartOptions restart_opts_;
  int restarts_done_ = 0;
  std::chrono::steady_clock::time_point restart_at_{};
  std::chrono::milliseconds current_backoff_{0};

  // Watchdog-thread-only stall-tracking state (one watchdog per engine).
  std::uint64_t wd_heartbeat_ = 0;
  std::chrono::steady_clock::time_point wd_busy_since_{};

  AtomicStats stats_;
  // The owning engine's attachment, fixed at construction.  Both are shared
  // with the engine, so a handle stays usable after the engine is gone.
  const std::shared_ptr<EngineLink> link_;  ///< scheduling nudges
  const std::shared_ptr<std::atomic<std::uint32_t>> output_epoch_;  ///< wakes drainers
};

}  // namespace twiddc::stream
