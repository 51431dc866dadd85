#include "src/stream/session.hpp"

#include <algorithm>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/trace.hpp"
#include "src/stream/engine.hpp"

namespace twiddc::stream {

namespace {
constexpr trace::Category kTraceCat = trace::Category::kStream;
}  // namespace

const char* to_string(BackpressurePolicy policy) {
  return policy == BackpressurePolicy::kBlock ? "block" : "drop_oldest";
}

const char* to_string(GapCause cause) {
  switch (cause) {
    case GapCause::kNone: return "none";
    case GapCause::kDropOldest: return "drop_oldest";
    case GapCause::kRetuneFlush: return "retune_flush";
    case GapCause::kShed: return "shed";
    case GapCause::kFault: return "fault";
  }
  return "unknown";
}

const char* to_string(SessionHealth health) {
  switch (health) {
    case SessionHealth::kHealthy: return "healthy";
    case SessionHealth::kBackoff: return "backoff";
    case SessionHealth::kQuarantined: return "quarantined";
    case SessionHealth::kFaulted: return "faulted";
  }
  return "unknown";
}

const char* to_string(RestartPolicy policy) {
  switch (policy) {
    case RestartPolicy::kFail: return "fail";
    case RestartPolicy::kRestartWithBackoff: return "restart_with_backoff";
    case RestartPolicy::kQuarantine: return "quarantine";
  }
  return "unknown";
}

Session::Session(std::uint64_t id,
                 std::unique_ptr<core::ArchitectureBackend> backend,
                 BackpressurePolicy policy, std::size_t queue_blocks,
                 std::size_t output_chunks, std::shared_ptr<EngineLink> link,
                 std::shared_ptr<std::atomic<std::uint32_t>> output_epoch)
    : id_(id),
      backend_name_(backend->name()),
      plan_name_(backend->plan().name),
      policy_(policy),
      backend_(std::move(backend)),
      in_ring_(queue_blocks),
      out_ring_(output_chunks),
      link_(std::move(link)),
      output_epoch_(std::move(output_epoch)) {}

void Session::request_service() {
  std::lock_guard<std::mutex> lock(link_->mu);
  if (link_->engine && link_->scheduler_live)
    link_->engine->schedule_session(*this);
}

std::vector<StreamChunk> Session::poll(std::size_t max_chunks) {
  std::vector<StreamChunk> chunks;
  while (max_chunks == 0 || chunks.size() < max_chunks) {
    auto chunk = out_ring_.try_pop();
    if (!chunk) break;
    chunks.push_back(std::move(*chunk));
  }
  stats_.chunks_polled.fetch_add(chunks.size(), std::memory_order_relaxed);
  // A session parked on a stashed undelivered chunk (or holding queued
  // input) gets a service pass queued.
  // Deliberately NOT conditioned on this poll having returned chunks: a
  // stale-false read of has_pending_chunk_ during the poll that actually
  // freed the ring would otherwise strand the stash forever (no later
  // poll would pass a got-chunks guard), deadlocking a kBlock feed.
  // Also deliberately NOT fast-pathed on sched_state_: a stale kScheduled/
  // kRunningDirty read can describe a pass that already failed delivery
  // and parked, so skipping the nudge on it is the same lost wakeup in a
  // different coat.  The link mutex is uncontended except under
  // multi-threaded polling, where a convoy costs latency, not correctness.
  if (has_pending_chunk_.load(std::memory_order_acquire) || in_ring_.size() > 0)
    request_service();
  return chunks;
}

bool Session::retune(const core::ChainPlan& plan, core::SwapMode mode) {
  // One retune at a time: the mailbox is a single slot, so a concurrent
  // second request must queue behind the first, not overwrite it.
  std::lock_guard<std::mutex> serial(retune_serial_mu_);
  std::unique_lock<std::mutex> lock(control_mu_);
  for (;;) {
    if (retune_result_.has_value()) {
      // A worker applied (or rejected) the mailbox request.
      const bool ok = *retune_result_;
      retune_result_.reset();
      return ok;
    }
    if (closed_.load(std::memory_order_acquire)) {
      pending_retune_.reset();
      last_error_ = "session closed";
      return false;
    }
    if (try_claim_actor()) {
      // No worker is inside a pass, and none can enter one until the
      // release below: swap here, at the block boundary the last pass left.
      // A request parked in the mailbox was never reached; take it back.
      pending_retune_.reset();
      const bool faulted = apply_swap_locked(plan, mode, /*inline_swap=*/true);
      const bool ok = *retune_result_;
      retune_result_.reset();
      // Release before dropping control_mu_, which start()'s re-arm takes.
      // Re-queue unconditionally: a queued task this claim overtook fails
      // its own claim and is dropped, and a nudge that arrived meanwhile
      // was absorbed by kRunningDirty.
      sched_state_.store(kIdle, std::memory_order_release);
      lock.unlock();
      if (faulted) finish_fault();
      request_service();
      return ok;
    }
    if (!pending_retune_.has_value()) {
      // A worker holds the actor: post to the mailbox, which the worker
      // reads after its current block, and mark its pass dirty so it
      // re-queues if it ends first.  Then claim again -- the pass may have
      // ended meanwhile, and the run queue is the wait to avoid.
      pending_retune_.emplace(RetuneRequest{plan, mode});
      lock.unlock();
      request_service();
      lock.lock();
      continue;
    }
    // Woken by the worker's answer, a close, or a stop() that detached the
    // workers before they reached the mailbox (the claim then succeeds:
    // stop() joins every worker before it detaches).
    control_cv_.wait(lock, [this] {
      return retune_result_.has_value() ||
             detached_.load(std::memory_order_acquire) ||
             closed_.load(std::memory_order_acquire);
    });
  }
}

bool Session::try_claim_actor() {
  int st = sched_state_.load(std::memory_order_acquire);
  while (st == kIdle || st == kScheduled) {
    if (sched_state_.compare_exchange_weak(st, kRunning, std::memory_order_acq_rel))
      return true;
  }
  return false;
}

bool Session::apply_pending_retune() {
  bool faulted = false;
  {
    std::unique_lock<std::mutex> lock(control_mu_);
    if (!pending_retune_.has_value()) return false;
    const RetuneRequest request = std::move(*pending_retune_);
    pending_retune_.reset();
    faulted = apply_swap_locked(request.plan, request.mode, /*inline_swap=*/false);
    control_cv_.notify_all();
  }
  if (faulted) finish_fault();
  return true;
}

bool Session::apply_swap_locked(const core::ChainPlan& plan, core::SwapMode mode,
                                bool inline_swap) {
  std::string broke;
  try {
    backend_->swap_plan(plan, mode);
    plan_name_ = backend_->plan().name;
    stats_.retunes_applied.fetch_add(1, std::memory_order_relaxed);
    if (inline_swap) stats_.retunes_inline.fetch_add(1, std::memory_order_relaxed);
    stats_.last_retune_block.store(
        stats_.blocks_processed.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    if (mode == core::SwapMode::kFlush) pending_flush_gap_ = true;
    retune_result_ = true;
    if (trace::enabled(kTraceCat)) {
      // arg1: bit 0 set = splice swap (clear = flush), bit 1 set = applied
      // inline on the retune() caller's thread (clear = by a worker).
      static const std::uint16_t kName = trace::intern("retune");
      trace::emit(kTraceCat, kName, trace::Phase::kInstant, id_,
                  (mode == core::SwapMode::kFlush ? 0u : 1u) | (inline_swap ? 2u : 0u));
    }
    return false;
  } catch (const ConfigError& e) {
    // A lowering/config rejection is the swap contract working, not a
    // fault: swap_plan guarantees the old configuration stays active and
    // the session keeps streaming on it.  (LoweringError derives ConfigError.)
    last_error_ = e.what();
    stats_.retunes_rejected.fetch_add(1, std::memory_order_relaxed);
    retune_result_ = false;
    if (trace::enabled(kTraceCat)) {
      static const std::uint16_t kName = trace::intern("retune_rejected");
      trace::emit(kTraceCat, kName, trace::Phase::kInstant, id_, 0);
    }
    return false;
  } catch (const std::exception& e) {
    broke = e.what();
  } catch (...) {
    broke = "swap_plan: foreign exception";
  }
  // The backend broke mid-swap: enter the fault now, so whoever holds the
  // actor next already sees the new health and never runs a block on it.
  retune_result_ = false;
  enter_fault_locked(
      FaultInfo{FaultCause::kBackendSwap,
                stats_.blocks_processed.load(std::memory_order_relaxed), std::move(broke)},
      restart_opts_.policy);
  return true;
}

void Session::set_attached(bool attached) {
  std::lock_guard<std::mutex> lock(control_mu_);
  if (attached) sched_state_.store(kIdle, std::memory_order_release);
  detached_.store(!attached, std::memory_order_release);
  control_cv_.notify_all();
}

void Session::set_paused(bool paused) {
  paused_.store(paused, std::memory_order_release);
  in_ring_.wake();
  // Resuming needs a service pass for the backlog; pausing needs none (the
  // worker simply stops consuming on its next look).
  if (!paused) request_service();
}

void Session::set_weight(int weight) {
  weight_.store(std::clamp(weight, 1, 1024), std::memory_order_release);
}

void Session::close() {
  closed_.store(true, std::memory_order_release);
  in_ring_.close();  // pump pushes fail from here on
  // Free the queued feed blocks now (workers skip closed sessions, so
  // nothing else would release the shared buffers).  Pop claims are
  // MPMC-safe, so racing a mid-block worker is fine.
  while (in_ring_.try_pop()) {
  }
  out_ring_.wake();  // unblock a worker waiting for output space
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    control_cv_.notify_all();  // fail any retune() waiting on a worker
  }
  {
    // Tell the pump its fan-out list went stale (it prunes on the next
    // generation change).
    std::lock_guard<std::mutex> lock(link_->mu);
    if (link_->engine)
      link_->engine->sessions_gen_.fetch_add(1, std::memory_order_release);
  }
  // Closing can complete a drain (finished() treats closed as terminal).
  output_epoch_->fetch_add(1, std::memory_order_release);
  output_epoch_->notify_all();
}

std::string Session::plan_name() const {
  std::lock_guard<std::mutex> lock(control_mu_);
  return plan_name_;
}

bool Session::retune_pending() const {
  std::lock_guard<std::mutex> lock(control_mu_);
  return pending_retune_.has_value();
}

std::string Session::last_error() const {
  std::lock_guard<std::mutex> lock(control_mu_);
  return last_error_;
}

void Session::fault(FaultCause cause, std::string what) {
  RestartPolicy policy;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    policy = restart_opts_.policy;
  }
  apply_fault_transition(
      FaultInfo{cause, stats_.blocks_processed.load(std::memory_order_relaxed),
                std::move(what)},
      policy);
}

void Session::quarantine(FaultCause cause, std::string what) {
  apply_fault_transition(
      FaultInfo{cause, stats_.blocks_processed.load(std::memory_order_relaxed),
                std::move(what)},
      RestartPolicy::kQuarantine);
}

void Session::apply_fault_transition(FaultInfo info, RestartPolicy policy) {
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    enter_fault_locked(std::move(info), policy);
  }
  finish_fault();
}

void Session::enter_fault_locked(FaultInfo info, RestartPolicy policy) {
  if (trace::enabled(kTraceCat)) {
    // arg1 carries the stable wire code (error_code), so a trace consumer
    // matches causes without the enum header.
    static const std::uint16_t kName = trace::intern("fault");
    trace::emit(kTraceCat, kName, trace::Phase::kInstant, id_,
                static_cast<std::uint64_t>(error_code(info.cause)));
  }
  last_error_ = info.what;
  last_fault_ = std::move(info);
  stats_.faults.fetch_add(1, std::memory_order_relaxed);
  switch (policy) {
    case RestartPolicy::kFail:
      health_.store(static_cast<std::uint8_t>(SessionHealth::kFaulted),
                    std::memory_order_release);
      break;
    case RestartPolicy::kRestartWithBackoff:
      if (restarts_done_ >= restart_opts_.max_restarts) {
        health_.store(static_cast<std::uint8_t>(SessionHealth::kQuarantined),
                      std::memory_order_release);
      } else {
        if (current_backoff_.count() <= 0)
          current_backoff_ =
              std::max(std::chrono::milliseconds{1}, restart_opts_.initial_backoff);
        restart_at_ = std::chrono::steady_clock::now() + current_backoff_;
        current_backoff_ = std::min(current_backoff_ * 2, restart_opts_.max_backoff);
        health_.store(static_cast<std::uint8_t>(SessionHealth::kBackoff),
                      std::memory_order_release);
      }
      break;
    case RestartPolicy::kQuarantine:
      health_.store(static_cast<std::uint8_t>(SessionHealth::kQuarantined),
                    std::memory_order_release);
      break;
  }
  // A retune() parked on the mailbox must re-check: a quarantined session
  // still applies pending retunes on its next service pass, but a kFail
  // close is terminal.
  control_cv_.notify_all();
}

void Session::finish_fault() {
  // kFaulted is terminal and entered only under kFail: close the session.
  if (health() == SessionHealth::kFaulted) {
    close();
    return;
  }
  if (health() == SessionHealth::kQuarantined) {
    if (trace::enabled(kTraceCat)) {
      static const std::uint16_t kName = trace::intern("quarantine");
      trace::emit(kTraceCat, kName, trace::Phase::kInstant, id_,
                  static_cast<std::uint64_t>(error_code(last_fault().cause)));
    }
    // Quarantine freezes the stream: free the queued feed blocks (the pump
    // stops feeding us, and nothing else would release the shared buffers).
    while (in_ring_.try_pop()) {
    }
  }
  // A kBlock pump wait on our full ring must re-check (quarantine removes us
  // from the fan-out), and a drain blocked on the output eventcount must see
  // the state change (finished() treats quarantine as input-terminal).
  in_ring_.wake();
  out_ring_.wake();
  output_epoch_->fetch_add(1, std::memory_order_release);
  output_epoch_->notify_all();
}

FaultInfo Session::last_fault() const {
  std::lock_guard<std::mutex> lock(control_mu_);
  return last_fault_;
}

void Session::set_restart_policy(const RestartOptions& options) {
  std::lock_guard<std::mutex> lock(control_mu_);
  restart_opts_ = options;
  restart_opts_.max_restarts = std::max(0, options.max_restarts);
  restart_opts_.initial_backoff =
      std::max(std::chrono::milliseconds{0}, options.initial_backoff);
  restart_opts_.max_backoff =
      std::max(restart_opts_.initial_backoff, options.max_backoff);
  // A policy change grants a fresh budget: restart() after set_restart_policy
  // retries with the new counters.
  restarts_done_ = 0;
  current_backoff_ = restart_opts_.initial_backoff;
}

RestartOptions Session::restart_policy() const {
  std::lock_guard<std::mutex> lock(control_mu_);
  return restart_opts_;
}

bool Session::restart() {
  if (closed()) return false;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    const auto h = health();
    if (h == SessionHealth::kHealthy || h == SessionHealth::kFaulted) return false;
    restart_at_ = std::chrono::steady_clock::now();  // retry immediately
    health_.store(static_cast<std::uint8_t>(SessionHealth::kBackoff),
                  std::memory_order_release);
  }
  request_service();
  return true;
}

bool Session::restart_due(std::chrono::steady_clock::time_point now) const {
  std::lock_guard<std::mutex> lock(control_mu_);
  return health() == SessionHealth::kBackoff && now >= restart_at_;
}

void Session::complete_restart() {
  int restarts = 0;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    restarts = ++restarts_done_;
    stats_.restarts.fetch_add(1, std::memory_order_relaxed);
    health_.store(static_cast<std::uint8_t>(SessionHealth::kHealthy),
                  std::memory_order_release);
  }
  if (trace::enabled(kTraceCat)) {
    static const std::uint16_t kName = trace::intern("restart");
    trace::emit(kTraceCat, kName, trace::Phase::kInstant, id_,
                static_cast<std::uint64_t>(restarts));
  }
  pending_fault_gap_ = true;  // worker thread: mark the resume point in-stream
}

void Session::note_shed(std::uint64_t samples) {
  stats_.shed_events.fetch_add(1, std::memory_order_relaxed);
  stats_.shed_samples.fetch_add(samples, std::memory_order_relaxed);
  pending_shed_samples_.fetch_add(samples, std::memory_order_relaxed);
}

void Session::note_queue_depth(std::uint64_t depth) {
  std::uint64_t seen = stats_.max_queue_depth.load(std::memory_order_relaxed);
  while (depth > seen &&
         !stats_.max_queue_depth.compare_exchange_weak(
             seen, depth, std::memory_order_relaxed)) {
  }
}

SessionStats Session::stats() const {
  SessionStats s;
  s.blocks_enqueued = stats_.blocks_enqueued.load(std::memory_order_relaxed);
  s.samples_enqueued = stats_.samples_enqueued.load(std::memory_order_relaxed);
  s.blocks_processed = stats_.blocks_processed.load(std::memory_order_relaxed);
  s.samples_processed = stats_.samples_processed.load(std::memory_order_relaxed);
  s.samples_out = stats_.samples_out.load(std::memory_order_relaxed);
  s.chunks_polled = stats_.chunks_polled.load(std::memory_order_relaxed);
  s.input_drop_blocks = stats_.input_drop_blocks.load(std::memory_order_relaxed);
  s.input_drop_samples = stats_.input_drop_samples.load(std::memory_order_relaxed);
  s.output_drop_chunks = stats_.output_drop_chunks.load(std::memory_order_relaxed);
  s.output_drop_samples = stats_.output_drop_samples.load(std::memory_order_relaxed);
  s.max_queue_depth = stats_.max_queue_depth.load(std::memory_order_relaxed);
  s.retunes_applied = stats_.retunes_applied.load(std::memory_order_relaxed);
  s.retunes_inline = stats_.retunes_inline.load(std::memory_order_relaxed);
  s.retunes_rejected = stats_.retunes_rejected.load(std::memory_order_relaxed);
  s.gaps = stats_.gaps.load(std::memory_order_relaxed);
  s.last_retune_block = stats_.last_retune_block.load(std::memory_order_relaxed);
  s.service_passes = stats_.service_passes.load(std::memory_order_relaxed);
  s.faults = stats_.faults.load(std::memory_order_relaxed);
  s.restarts = stats_.restarts.load(std::memory_order_relaxed);
  s.shed_events = stats_.shed_events.load(std::memory_order_relaxed);
  s.shed_samples = stats_.shed_samples.load(std::memory_order_relaxed);
  return s;
}

}  // namespace twiddc::stream
