#include "src/stream/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/json.hpp"
#include "src/common/trace.hpp"
#include "src/core/plan_compiler.hpp"

namespace twiddc::stream {

namespace {

constexpr trace::Category kStreamCat = trace::Category::kStream;

/// EngineOptions::workers <= 0: the TWIDDC_WORKERS environment variable when
/// set and positive (a deployment setting), else hardware_concurrency (>= 1).
/// Read per construction, so tests can flip the variable.
int default_worker_count() {
  if (const char* env = std::getenv("TWIDDC_WORKERS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Interned event-name ids for this file's trace sites, resolved once on
/// first use (any site, any thread -- the static init is serialized).
struct TraceNames {
  std::uint16_t engine_start = trace::intern("engine_start");
  std::uint16_t engine_stop = trace::intern("engine_stop");
  std::uint16_t pump_block = trace::intern("pump_block");
  std::uint16_t pump_stall = trace::intern("pump_stall");
  std::uint16_t feed_end = trace::intern("feed_end");
  std::uint16_t service = trace::intern("service");
  std::uint16_t gap = trace::intern("gap");
  std::uint16_t shed = trace::intern("shed");
};
const TraceNames& tn() {
  static const TraceNames names;
  return names;
}

}  // namespace

StreamEngine::StreamEngine(std::unique_ptr<Source> source, EngineOptions options)
    : options_(options),
      source_(std::move(source)),
      link_(std::make_shared<EngineLink>()),
      output_epoch_(std::make_shared<std::atomic<std::uint32_t>>(0)) {
  if (!source_) throw ConfigError("StreamEngine: needs a source");
  if (options_.workers <= 0) options_.workers = default_worker_count();
  options_.block_samples = std::max<std::size_t>(1, options_.block_samples);
  options_.session_queue_blocks = std::max<std::size_t>(2, options_.session_queue_blocks);
  options_.session_output_chunks =
      std::max<std::size_t>(2, options_.session_output_chunks);
  options_.session_quantum_blocks =
      std::max<std::size_t>(1, options_.session_quantum_blocks);
  options_.default_restart.max_restarts =
      std::max(0, options_.default_restart.max_restarts);
  options_.shed_queue_fraction = std::clamp(options_.shed_queue_fraction, 0.05, 1.0);
  link_->engine = this;
}

StreamEngine::~StreamEngine() {
  stop();
  // Session handles may outlive the engine: cut the scheduling link so
  // their poll()/close() nudges become no-ops instead of dangling.
  std::lock_guard<std::mutex> lock(link_->mu);
  link_->engine = nullptr;
}

std::shared_ptr<Session> StreamEngine::open(const core::ChainPlan& plan,
                                            const std::string& backend_name,
                                            BackpressurePolicy policy) {
  auto backend = core::BackendRegistry::instance().create(backend_name);
  backend->configure(plan);  // LoweringError propagates; nothing opened
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::shared_ptr<Session> session(
      new Session(next_session_id_++, std::move(backend), policy,
                  options_.session_queue_blocks, options_.session_output_chunks,
                  link_, output_epoch_));
  session->set_attached(workers_live_);
  session->set_restart_policy(options_.default_restart);
  sessions_.push_back(session);
  sessions_gen_.fetch_add(1, std::memory_order_release);
  return session;
}

void StreamEngine::start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire))
    throw SimulationError("StreamEngine: start() while already running");
  sched_ = std::make_unique<common::TaskScheduler>(options_.workers);
  stop_.store(false, std::memory_order_release);
  // run_start_time_ is non-atomic: publish it BEFORE the running_ release
  // store so a stats_json() that acquire-reads running_ == true sees it.
  run_start_time_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    workers_live_ = true;
  }
  const auto sessions = snapshot();
  for (auto& s : sessions) {
    // A stop() may have dropped queued tasks mid-protocol; re-arm the actor
    // state machine.  Duplicate tasks are harmless (run_session claims by
    // CAS), so a racing client nudge cannot double-run a session.
    s->sched_state_.store(Session::kIdle, std::memory_order_release);
    s->set_attached(true);
  }
  {
    std::lock_guard<std::mutex> lock(link_->mu);
    link_->scheduler_live = true;
  }
  // Kick every open session once so input queued across a stop, a stashed
  // chunk or a parked retune is serviced without waiting for fresh feed.
  for (auto& s : sessions) schedule_session(*s);
  trace::instant(kStreamCat, tn().engine_start, sessions.size(),
                 static_cast<std::uint64_t>(options_.workers));
  pump_thread_ = std::thread([this] {
    trace::set_thread_name("pump");
    pump_loop();
  });
  if (options_.watchdog_interval_us > 0)
    watchdog_thread_ = std::thread([this] {
      trace::set_thread_name("watchdog");
      watchdog_loop();
    });
}

void StreamEngine::stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  notify_output();
  for (auto& s : snapshot()) s->in_ring_.wake();  // a kBlock pump push may park here
  {
    // The empty critical section orders our notify after a watchdog that was
    // between its stop_ check and its wait; either way it sees stop_ set.
    std::lock_guard<std::mutex> lock(watchdog_mu_);
  }
  watchdog_cv_.notify_all();
  // Join the watchdog BEFORE the scheduler dies: its restart kicks call
  // schedule_session, which needs the scheduler alive.
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  if (pump_thread_.joinable()) pump_thread_.join();
  {
    // Client nudges must stop reaching the scheduler before it dies.
    std::lock_guard<std::mutex> lock(link_->mu);
    link_->scheduler_live = false;
  }
  // Join the workers first, THEN snapshot the counters: queued session
  // tasks still RUN during the shutdown drain (each a claim + no-op, since
  // stop_ is already set; their re-queues are dropped and the next start()
  // re-arms), and that drain must be visible in the stats trajectory.
  sched_->shutdown();
  sched_stats_ = sched_->stats();
  sched_.reset();
  streamed_elapsed_s_.store(
      streamed_elapsed_s_.load(std::memory_order_relaxed) +
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        run_start_time_)
              .count(),
      std::memory_order_relaxed);
  running_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    workers_live_ = false;
  }
  // Any session open()ed after the flag flip is born detached; any opened
  // before it is in this snapshot (open holds sessions_mu_), so nobody is
  // left attached with no workers alive.
  for (auto& s : snapshot()) s->set_attached(false);
  {
    // Sessions closed after the pump's last snapshot never hit its pruning;
    // drop them here so a stopped engine holds only open sessions.
    std::lock_guard<std::mutex> lock(sessions_mu_);
    std::erase_if(sessions_, [](const auto& s) { return s->closed(); });
  }
  trace::instant(kStreamCat, tn().engine_stop,
                 blocks_pumped_.load(std::memory_order_relaxed), 0);
  notify_output();
}

bool StreamEngine::finished(const Session& session) const {
  // While stopped (or after stop() cut a feed short) queued input cannot
  // progress, so only the output ring matters -- otherwise a drain helper
  // would wait forever for processing that cannot happen until the next
  // start().
  if (stop_.load(std::memory_order_acquire))
    return session.out_ring_.size() == 0;
  // Order matters: the input side is read before the output ring.  Once the
  // feed is done and the session is seen idle (input ring empty, not mid-
  // block, no stashed undelivered chunk), no further chunk can ever be
  // produced, so an empty output ring read *afterwards* really is final.
  // busy_ is set before the worker pops and cleared after the chunk is
  // delivered or stashed; has_pending_chunk_ covers the stashed window.
  // A quarantined session is input-terminal too: its backlog was discarded
  // and the pump skips it, so waiting on its input side would hang a drain.
  // (Queued output stays pollable, exactly like a closed session's.)
  const bool input_done =
      session.closed() || session.health() == SessionHealth::kQuarantined ||
      (feed_exhausted() && session.in_ring_.size() == 0 &&
       !session.busy_.load(std::memory_order_acquire) &&
       !session.has_pending_chunk_.load(std::memory_order_acquire));
  return input_done && session.out_ring_.size() == 0;
}

std::size_t StreamEngine::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

std::vector<std::shared_ptr<Session>> StreamEngine::snapshot() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_;
}

// ------------------------------------------------------------------- pump

void StreamEngine::pump_loop() {
  std::vector<std::int64_t> buffer(options_.block_samples);
  // The fan-out list is cached: it is refreshed (and closed sessions are
  // pruned) only when sessions_gen_ says open()/close() changed the set,
  // so the steady-state pump touches no mutex and copies no session list.
  std::vector<std::shared_ptr<Session>> live;
  std::uint64_t seen_gen = 0;  // sessions_gen_ starts at 1: first block snapshots
  bool exhausted = false;
  while (!stop_.load(std::memory_order_acquire)) {
    FeedBlock block;
    const bool resuming = carry_.has_value();
    if (resuming) {
      // A previous run was stopped mid-fan-out; finish that block first so
      // a restarted stream loses nothing.
      block = carry_->block;
    } else {
      std::size_t n = 0;
      try {
        n = source_->read(buffer);
      } catch (const std::exception& e) {
        // Contain a source failure as an engine-level fault: the feed ends
        // as if exhausted (sessions drain their queues and finish cleanly)
        // and the diagnostic is kept, instead of std::terminate taking the
        // whole process down from a detached pump thread.
        {
          std::lock_guard<std::mutex> lock(source_fault_mu_);
          source_fault_ = FaultInfo{
              FaultCause::kSource, blocks_pumped_.load(std::memory_order_relaxed),
              std::string("source read: ") + e.what()};
        }
        source_faults_.fetch_add(1, std::memory_order_relaxed);
        exhausted = true;
        break;
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(source_fault_mu_);
          source_fault_ = FaultInfo{
              FaultCause::kSource, blocks_pumped_.load(std::memory_order_relaxed),
              "source read: foreign exception"};
        }
        source_faults_.fetch_add(1, std::memory_order_relaxed);
        exhausted = true;
        break;
      }
      if (n == 0) {
        // End of stream, by contract a clean exit: EOF is never a fault.
        exhausted = true;
        break;
      }
      block.seq = blocks_pumped_.load(std::memory_order_relaxed);
      block.samples = std::make_shared<const std::vector<std::int64_t>>(
          buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(n));
    }
    bool aborted = false;
    const std::uint64_t fanout_start_ns = trace::Span::now_ns();
    {
      trace::Span fanout_span(kStreamCat, tn().pump_block, block.seq);
      const std::uint64_t gen = sessions_gen_.load(std::memory_order_acquire);
      if (gen != seen_gen) {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        std::erase_if(sessions_, [](const auto& s) { return s->closed(); });
        live = sessions_;
        seen_gen = gen;
      }
      for (std::size_t k = 0; k < live.size(); ++k) {
        Session& s = *live[k];
        if (s.closed()) continue;  // may close mid-fan-out
        // Quarantined/faulted sessions are out of the feed (their backlog was
        // discarded); a kBackoff session keeps receiving -- its ring buffers
        // the stream across the restart window.
        const auto health = s.health();
        if (health == SessionHealth::kQuarantined ||
            health == SessionHealth::kFaulted)
          continue;
        if (resuming &&
            std::find(carry_->served.begin(), carry_->served.end(), s.id()) !=
                carry_->served.end())
          continue;  // this session already got the block last run
        if (!enqueue(s, block)) {
          // stop() cut a kBlock wait short: record the fan-out position --
          // everything before index k (that was eligible) got the block --
          // so the next run resumes exactly.  Only this rare abort path
          // pays for the bookkeeping; the steady-state pump allocates
          // nothing per block.
          std::vector<std::uint64_t> served =
              resuming ? std::move(carry_->served) : std::vector<std::uint64_t>{};
          for (std::size_t j = 0; j < k; ++j) served.push_back(live[j]->id());
          carry_.emplace(PendingFanout{block, std::move(served)});
          aborted = true;
          break;
        }
      }
      if (!aborted) {
        carry_.reset();
        // Counted when the fan-out completes (an aborted block is not pumped
        // yet -- its resumed completion on the next run counts it).
        blocks_pumped_.fetch_add(1, std::memory_order_release);
      }
    }
    pump_block_ns_.record(trace::Span::now_ns() - fanout_start_ns);
    if (aborted) break;
  }
  if (exhausted) {
    feed_done_.store(true, std::memory_order_release);
    trace::instant(kStreamCat, tn().feed_end,
                   blocks_pumped_.load(std::memory_order_relaxed),
                   source_faults_.load(std::memory_order_relaxed));
  }
  notify_output();
}

bool StreamEngine::enqueue(Session& s, const FeedBlock& block) {
  FeedBlock copy = block;  // cheap: a seq and a shared_ptr
  if (s.policy_ == BackpressurePolicy::kBlock) {
    // Conservative flow control: a full ring stalls the pump -- and with it
    // the whole feed -- until the session's worker catches up.  The stall is
    // published (session id + park time) so the watchdog's overload pass can
    // see WHO is holding the feed hostage and shed its backlog.
    bool stall_published = false;
    const auto unpublish = [&] {
      if (stall_published) pump_stalled_on_.store(0, std::memory_order_release);
    };
    for (;;) {
      const auto token = s.in_ring_.wake_token();
      if (s.in_ring_.closed()) {
        unpublish();
        return true;  // session closed: nothing owed
      }
      if (s.health() == SessionHealth::kQuarantined) {
        unpublish();
        return true;  // quarantined mid-wait: it left the feed
      }
      if (stop_.load(std::memory_order_acquire)) {
        unpublish();
        return false;  // run ended mid-push: the pump carries this block over
      }
      if (s.in_ring_.try_push(std::move(copy))) break;
      if (!stall_published) {
        pump_stall_since_ns_.store(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count(),
            std::memory_order_release);
        pump_stalled_on_.store(s.id() + 1, std::memory_order_release);
        stall_published = true;
        trace::instant(kStreamCat, tn().pump_stall, s.id(), block.seq);
      }
      s.in_ring_.wait(token);
    }
    unpublish();
  } else {
    // Shed load instead of stalling: evict the oldest queued block.  The
    // loss surfaces in-stream as gap metadata on the session's next chunk.
    for (;;) {
      if (s.in_ring_.closed()) return true;
      if (s.health() == SessionHealth::kQuarantined) return true;
      if (s.in_ring_.try_push(std::move(copy))) break;
      if (auto old = s.in_ring_.try_pop()) {
        s.stats_.input_drop_blocks.fetch_add(1, std::memory_order_relaxed);
        s.stats_.input_drop_samples.fetch_add(old->samples->size(),
                                              std::memory_order_relaxed);
        s.pending_dropped_samples_.fetch_add(old->samples->size(),
                                             std::memory_order_relaxed);
      }
    }
  }
  // close() may have raced our push after its own drain pass; re-drain so
  // no FeedBlock is stranded in the closed ring holding the shared buffer.
  if (s.closed()) {
    while (s.in_ring_.try_pop()) {
    }
    return true;
  }
  s.stats_.blocks_enqueued.fetch_add(1, std::memory_order_relaxed);
  s.stats_.samples_enqueued.fetch_add(block.samples->size(),
                                      std::memory_order_relaxed);
  s.note_queue_depth(s.in_ring_.size());
  // The per-session nudge: queue THIS session's actor unless it is already
  // queued or marked dirty.  Paused sessions are left alone
  // (set_paused(false) re-schedules).
  if (!s.paused()) schedule_session(s);
  return true;
}

// -------------------------------------------------------------- scheduling

void StreamEngine::schedule_session(Session& s) {
  for (;;) {
    int st = s.sched_state_.load(std::memory_order_acquire);
    if (st == Session::kIdle) {
      if (s.sched_state_.compare_exchange_weak(st, Session::kScheduled,
                                               std::memory_order_acq_rel))
        return submit_session_task(s.shared_from_this());
    } else if (st == Session::kRunning) {
      if (s.sched_state_.compare_exchange_weak(st, Session::kRunningDirty,
                                               std::memory_order_acq_rel))
        return;  // the running pass's epilogue re-queues
    } else {
      return;  // already queued or already marked dirty
    }
  }
}

void StreamEngine::submit_session_task(const std::shared_ptr<Session>& session) {
  sched_->submit([this, session] { run_session(session); });
}

void StreamEngine::run_session(const std::shared_ptr<Session>& sp) {
  Session& s = *sp;
  int expected = Session::kScheduled;
  // Claim the actor.  A failed claim means a duplicate task (possible only
  // across a stop()/start() reset) -- drop it; the claimer does the work.
  if (!s.sched_state_.compare_exchange_strong(expected, Session::kRunning,
                                              std::memory_order_acq_rel))
    return;
  s.stats_.service_passes.fetch_add(1, std::memory_order_relaxed);
  bool requeue = false;
  if (!stop_.load(std::memory_order_acquire) && !s.closed()) {
    const std::size_t quantum =
        options_.session_quantum_blocks *
        static_cast<std::size_t>(s.weight_.load(std::memory_order_acquire));
    const std::uint64_t pass_start_ns = trace::Span::now_ns();
    trace::Span service_span(kStreamCat, tn().service, s.id());
    try {
      requeue = service(s, quantum);
      service_span.finish();
      service_pass_ns_.record(trace::Span::now_ns() - pass_start_ns);
    } catch (const std::exception& e) {
      // service() converts backend exceptions at their call sites; anything
      // that still escapes must not skip the epilogue below -- the scheduler
      // would swallow it and leave sched_state_ stuck at kRunning, a
      // permanently unserviceable session stalling a kBlock feed.  Convert
      // it to a typed fault instead of dropping it.
      s.busy_.store(false, std::memory_order_release);
      s.fault(FaultCause::kInternal, std::string("service: ") + e.what());
    } catch (...) {
      s.busy_.store(false, std::memory_order_release);
      s.fault(FaultCause::kInternal, "service: foreign exception");
    }
  }
  // Wake output waiters AFTER the final busy_/has_pending_chunk_ stores --
  // unconditionally: even a no-work pass raises busy_ for its empty-pop
  // probe, and a drain that read that transient "busy" (not finished) must
  // get one more wakeup, or it sleeps through the finish transition.
  notify_output();
  if (requeue) {
    // Quantum exhausted with input still queued: re-queue behind every
    // other queued task -- the WRR fairness edge.
    s.sched_state_.store(Session::kScheduled, std::memory_order_release);
    return submit_session_task(sp);
  }
  int st = Session::kRunning;
  if (s.sched_state_.compare_exchange_strong(st, Session::kIdle,
                                             std::memory_order_acq_rel))
    return;  // parked: a poll()/enqueue/retune nudge re-arms it
  // kRunningDirty: a request raced the pass; service again promptly.
  s.sched_state_.store(Session::kScheduled, std::memory_order_release);
  submit_session_task(sp);
}

bool StreamEngine::try_restart(Session& s) {
  if (!s.restart_due(std::chrono::steady_clock::now())) return false;
  try {
    // Copy before configure: the backend replaces its stored plan mid-call,
    // so configure(backend->plan()) would read a dying object.
    const core::ChainPlan plan = s.backend_->plan();
    // Re-lowering goes through configure, hence (for the compiled backends)
    // through the process-wide CompiledPlanCache -- a restart of one of N
    // identical sessions re-links the shared artifact, it does not recompile.
    s.backend_->configure(plan);
  } catch (const std::exception& e) {
    s.fault(FaultCause::kBackendConfigure,
            std::string("restart configure: ") + e.what());
    return false;
  } catch (...) {
    s.fault(FaultCause::kBackendConfigure, "restart configure: foreign exception");
    return false;
  }
  s.complete_restart();
  return true;
}

bool StreamEngine::service(Session& s, std::size_t budget) {
  s.apply_pending_retune();
  // A chunk stashed on an earlier pass (kBlock ring was full) must deliver
  // before any new block is processed -- stream order, and a pre-fault
  // chunk stays deliverable whatever the health state.  If the ring is
  // still full the session stays parked; a poll() re-schedules it.
  if (s.pending_chunk_.has_value() && !deliver_chunk(s)) return false;
  switch (s.health()) {
    case SessionHealth::kHealthy:
      break;
    case SessionHealth::kBackoff:
      // The timed retry: re-lower the plan and resume at the next block
      // boundary, or stay parked until the watchdog re-kicks us.
      if (!try_restart(s)) return false;
      break;
    case SessionHealth::kQuarantined:
    case SessionHealth::kFaulted:
      return false;  // parked; restart()/close() are the only exits
  }
  std::size_t processed = 0;
  for (;;) {
    if (stop_.load(std::memory_order_acquire) || s.closed() || s.paused() ||
        s.health() != SessionHealth::kHealthy)
      return false;
    if (processed >= budget) return s.in_ring_.size() > 0;
    // The watchdog's stall detector keys on this: heartbeat_ advancing
    // means the loop is alive; heartbeat_ frozen while busy_ stays up means
    // the backend call below never returned.
    s.heartbeat_.fetch_add(1, std::memory_order_release);
    s.busy_.store(true, std::memory_order_release);
    auto block = s.in_ring_.try_pop();
    if (!block) {
      s.busy_.store(false, std::memory_order_release);
      return false;
    }
    StreamChunk chunk;
    chunk.block_seq = block->seq;
    // Input-gap detection is by feed sequence, which is exact: every
    // eviction removes an enqueued block, so a drop shows up as precisely
    // one missing seq.  (Reading the drop counter alone would race the
    // pump and could stamp the marker one chunk early or late.)  The
    // counter supplies the dropped-sample tally; the pre-first-block case
    // covers drops while the session never got to process anything yet.
    const bool seq_gap = s.have_seq_ && block->seq != s.expected_seq_;
    const bool lead_gap =
        !s.have_seq_ &&
        s.pending_dropped_samples_.load(std::memory_order_relaxed) > 0;
    if (seq_gap || lead_gap) {
      chunk.gap_before = GapCause::kDropOldest;
      chunk.dropped_feed_samples =
          s.pending_dropped_samples_.exchange(0, std::memory_order_relaxed);
    }
    s.expected_seq_ = block->seq + 1;
    s.have_seq_ = true;
    if (s.pending_flush_gap_) {
      // A flush retune restarted the backend transient; that wins as the
      // cause (any coincident drop count is still reported).
      chunk.gap_before = GapCause::kRetuneFlush;
      s.pending_flush_gap_ = false;
    }
    if (s.pending_output_drop_samples_ > 0 || s.pending_evicted_feed_samples_ > 0 ||
        s.pending_output_marker_lost_) {
      // Output-ring evictions since the last produced chunk: forward the
      // loss (and any destroyed flush marker) instead of dropping it
      // silently.  See the StreamChunk doc for the position caveat.
      if (s.pending_output_marker_lost_)
        chunk.gap_before = GapCause::kRetuneFlush;
      else if (chunk.gap_before == GapCause::kNone)
        chunk.gap_before = GapCause::kDropOldest;
      chunk.dropped_output_samples = s.pending_output_drop_samples_;
      chunk.dropped_feed_samples += s.pending_evicted_feed_samples_;
      s.pending_output_drop_samples_ = 0;
      s.pending_evicted_feed_samples_ = 0;
      s.pending_output_marker_lost_ = false;
    }
    // Shed losses: the watchdog discarded queued feed (which also shows up
    // as a seq gap above); kShed overrides the generic kDropOldest cause
    // but yields to retune/fault markers, and the sample tally is additive.
    const std::uint64_t shed =
        s.pending_shed_samples_.exchange(0, std::memory_order_relaxed);
    if (shed > 0) {
      if (chunk.gap_before == GapCause::kNone ||
          chunk.gap_before == GapCause::kDropOldest)
        chunk.gap_before = GapCause::kShed;
      chunk.dropped_feed_samples += shed;
    }
    // Strongest cause last: the first chunk after a fault restart marks the
    // resume point (the faulted block's samples are part of the loss).
    if (s.pending_fault_gap_) {
      chunk.gap_before = GapCause::kFault;
      s.pending_fault_gap_ = false;
      chunk.dropped_feed_samples += s.pending_fault_lost_samples_;
      s.pending_fault_lost_samples_ = 0;
    }
    if (chunk.gap_before != GapCause::kNone) {
      s.stats_.gaps.fetch_add(1, std::memory_order_relaxed);
      trace::instant(kStreamCat, tn().gap, s.id(),
                     static_cast<std::uint64_t>(chunk.gap_before));
    }
    try {
      s.backend_->process_block(*block->samples, chunk.iq);
    } catch (const std::exception& e) {
      // The faulting block is consumed, not retried: a deterministic
      // failure (this very block, this plan) would otherwise re-fire on
      // every restart forever.  Its samples -- and any loss tallies the
      // discarded chunk was already carrying -- ride the next chunk's
      // kFault gap.
      s.pending_fault_lost_samples_ +=
          block->samples->size() + chunk.dropped_feed_samples;
      s.busy_.store(false, std::memory_order_release);
      s.fault(FaultCause::kBackendProcess,
              std::string("process_block: ") + e.what());
      return false;
    } catch (...) {
      s.pending_fault_lost_samples_ +=
          block->samples->size() + chunk.dropped_feed_samples;
      s.busy_.store(false, std::memory_order_release);
      s.fault(FaultCause::kBackendProcess, "process_block: foreign exception");
      return false;
    }
    s.stats_.blocks_processed.fetch_add(1, std::memory_order_relaxed);
    s.stats_.samples_processed.fetch_add(block->samples->size(),
                                         std::memory_order_relaxed);
    s.stats_.samples_out.fetch_add(chunk.iq.size(), std::memory_order_relaxed);
    s.pending_chunk_.emplace(std::move(chunk));
    s.has_pending_chunk_.store(true, std::memory_order_release);
    const bool delivered = deliver_chunk(s);
    s.busy_.store(false, std::memory_order_release);
    ++processed;
    s.apply_pending_retune();  // between blocks, mid-stream
    if (!delivered) return false;  // session parked until the client polls
  }
}

bool StreamEngine::deliver_chunk(Session& s) {
  if (s.closed()) {
    // Terminal: the undelivered chunk is discarded (close() docs).  Still
    // an output event -- a drain blocked on has_pending_chunk_ must
    // re-check after the discard.
    s.pending_chunk_.reset();
    s.has_pending_chunk_.store(false, std::memory_order_release);
    notify_output();
    return true;
  }
  if (stop_.load(std::memory_order_acquire)) {
    // The run is ending but the engine may be restarted: keep the chunk
    // stashed so the next run's kick delivers it -- a stop loses nothing.
    notify_output();
    return false;
  }
  if (s.policy_ == BackpressurePolicy::kBlock) {
    if (!s.out_ring_.try_push(std::move(*s.pending_chunk_))) return false;
  } else {
    for (;;) {
      if (s.out_ring_.try_push(std::move(*s.pending_chunk_))) break;
      if (auto old = s.out_ring_.try_pop()) {
        s.stats_.output_drop_chunks.fetch_add(1, std::memory_order_relaxed);
        s.stats_.output_drop_samples.fetch_add(old->iq.size(),
                                               std::memory_order_relaxed);
        // Keep the evicted chunk's story alive: its payload size, its feed
        // drops, and any flush marker ride forward to the next chunk.
        s.pending_output_drop_samples_ += old->iq.size() + old->dropped_output_samples;
        s.pending_evicted_feed_samples_ += old->dropped_feed_samples;
        if (old->gap_before == GapCause::kRetuneFlush)
          s.pending_output_marker_lost_ = true;
      }
    }
  }
  s.pending_chunk_.reset();
  s.has_pending_chunk_.store(false, std::memory_order_release);
  notify_output();
  return true;
}

void StreamEngine::notify_output() {
  output_epoch_->fetch_add(1, std::memory_order_release);
  output_epoch_->notify_all();
}

// --------------------------------------------------------------- watchdog

std::uint64_t StreamEngine::shed_backlog(Session& s) {
  std::uint64_t blocks = 0;
  std::uint64_t samples = 0;
  while (auto old = s.in_ring_.try_pop()) {
    ++blocks;
    samples += old->samples->size();
  }
  if (blocks == 0) return 0;
  shed_events_.fetch_add(1, std::memory_order_relaxed);
  shed_blocks_.fetch_add(blocks, std::memory_order_relaxed);
  shed_samples_.fetch_add(samples, std::memory_order_relaxed);
  s.note_shed(samples);
  trace::instant(kStreamCat, tn().shed, s.id(), blocks);
  // The pump may be parked on this very ring (kBlock): the drain made room,
  // wake it.  Output waiters learn about the state change too.
  s.in_ring_.wake();
  notify_output();
  return blocks;
}

bool StreamEngine::shed_one(const std::vector<std::shared_ptr<Session>>& sessions) {
  // The shedding contract: lowest weight first (weight is the only priority
  // knob a session has), ties broken toward the newest id -- deterministic,
  // and long-lived sessions win over late joiners.
  std::shared_ptr<Session> victim;
  for (const auto& s : sessions) {
    if (s->closed()) continue;
    const auto h = s->health();
    if (h == SessionHealth::kQuarantined || h == SessionHealth::kFaulted) continue;
    if (s->in_ring_.size() == 0) continue;
    if (!victim || s->weight() < victim->weight() ||
        (s->weight() == victim->weight() && s->id() > victim->id()))
      victim = s;
  }
  return victim && shed_backlog(*victim) > 0;
}

void StreamEngine::watchdog_loop() {
  const auto interval = std::chrono::microseconds(
      std::max<std::size_t>(100, options_.watchdog_interval_us));
  const auto stall_timeout = std::chrono::milliseconds(options_.stall_timeout_ms);
  const auto pump_stall_limit =
      std::chrono::milliseconds(options_.shed_pump_stall_ms);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(watchdog_mu_);
      watchdog_cv_.wait_for(lock, interval, [this] {
        return stop_.load(std::memory_order_acquire);
      });
    }
    if (stop_.load(std::memory_order_acquire)) return;
    watchdog_ticks_.fetch_add(1, std::memory_order_relaxed);
    const auto now = std::chrono::steady_clock::now();
    const auto sessions = snapshot();

    // 1. Timed kBackoff restarts: kick the session's worker; the service
    //    pass does the actual re-configure (only workers touch backends).
    for (const auto& s : sessions)
      if (!s->closed() && s->restart_due(now)) schedule_session(*s);

    // 2. Stall quarantine: heartbeat frozen while busy_ stays up means a
    //    backend call never returned.  Quarantine unhooks the session from
    //    the feed and the drains; the hostage worker thread itself is only
    //    reclaimed when (if) the call returns -- see DESIGN.md.
    if (options_.stall_timeout_ms > 0) {
      for (const auto& s : sessions) {
        if (s->closed() || s->health() != SessionHealth::kHealthy) continue;
        const std::uint64_t hb = s->heartbeat_.load(std::memory_order_acquire);
        if (!s->busy_.load(std::memory_order_acquire) || hb != s->wd_heartbeat_) {
          s->wd_heartbeat_ = hb;
          s->wd_busy_since_ = now;
          continue;
        }
        if (now - s->wd_busy_since_ >= stall_timeout) {
          stall_quarantines_.fetch_add(1, std::memory_order_relaxed);
          s->quarantine(FaultCause::kStall,
                        "watchdog: no progress for " +
                            std::to_string(options_.stall_timeout_ms) +
                            " ms inside a backend call");
        }
      }
    }

    // 3. Overload shedding -- only while the feed is live (a post-exhaustion
    //    backlog is drainage, not overload).
    if (options_.shed_enabled && !feed_exhausted()) {
      // Trigger A: the pump has been parked in one session's kBlock push
      // too long.  That session is stalling the whole feed; shed ITS
      // backlog (whatever its weight) to unblock everyone else.
      const std::uint64_t parked_on = pump_stalled_on_.load(std::memory_order_acquire);
      if (parked_on != 0) {
        const auto since = std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(
                pump_stall_since_ns_.load(std::memory_order_acquire)));
        if (now - since >= pump_stall_limit) {
          for (const auto& s : sessions) {
            if (s->id() + 1 == parked_on) {
              shed_backlog(*s);
              break;
            }
          }
        }
      }
      // Trigger B: aggregate input occupancy over the threshold -- shed
      // lowest-weight backlogs until back under (or nobody is sheddable).
      for (;;) {
        std::size_t queued = 0;
        std::size_t capacity = 0;
        for (const auto& s : sessions) {
          if (s->closed()) continue;
          const auto h = s->health();
          if (h == SessionHealth::kQuarantined || h == SessionHealth::kFaulted)
            continue;
          queued += s->in_ring_.size();
          capacity += options_.session_queue_blocks;
        }
        if (capacity == 0 ||
            static_cast<double>(queued) <=
                options_.shed_queue_fraction * static_cast<double>(capacity))
          break;
        if (!shed_one(sessions)) break;
      }
    }
  }
}

FaultInfo StreamEngine::source_fault() const {
  std::lock_guard<std::mutex> lock(source_fault_mu_);
  return source_fault_;
}

// ------------------------------------------------------------------- stats

std::string StreamEngine::stats_json() const {
  double elapsed = streamed_elapsed_s_.load(std::memory_order_relaxed);
  common::TaskScheduler::Stats sched_stats;
  {
    // run_start_time_ is rewritten by every start() now that the engine is
    // restartable, so it is only readable under the lifecycle mutex (the
    // "published once before running_" justification died with one-shot).
    std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
    if (running_.load(std::memory_order_acquire))
      elapsed += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                               run_start_time_)
                     .count();
    sched_stats = sched_ ? sched_->stats() : sched_stats_;
  }
  JsonLine engine_line;
  engine_line.field("sessions", session_count())
      .field("workers", static_cast<std::size_t>(options_.workers))
      .field("block_samples", options_.block_samples)
      .field("quantum_blocks", options_.session_quantum_blocks)
      .field("blocks_pumped", static_cast<std::size_t>(blocks_pumped()))
      .field("feed_exhausted", feed_exhausted())
      .field("running", running_.load(std::memory_order_acquire))
      .field("elapsed_s", elapsed)
      .field("tasks_executed", static_cast<std::size_t>(sched_stats.executed))
      // Submissions that woke a parked worker; the key keeps its older name
      // because perfbench's sched.wakeups_per_block reads it.
      .field("targeted_wakeups", static_cast<std::size_t>(sched_stats.wakeups));
  // Fault-containment counters.  faults/restarts aggregate the LIVE
  // sessions (a closed, pruned session takes its share with it); the
  // watchdog/shed/source counters are engine-owned and cumulative.
  {
    std::uint64_t faults = 0;
    std::uint64_t restarts = 0;
    std::size_t quarantined = 0;
    for (const auto& s : snapshot()) {
      const SessionStats st = s->stats();
      faults += st.faults;
      restarts += st.restarts;
      if (s->health() == SessionHealth::kQuarantined) ++quarantined;
    }
    const FaultInfo src = source_fault();
    engine_line.field("faults", static_cast<std::size_t>(faults))
        .field("restarts", static_cast<std::size_t>(restarts))
        .field("quarantined", quarantined)
        .field("stall_quarantines",
               static_cast<std::size_t>(
                   stall_quarantines_.load(std::memory_order_relaxed)))
        .field("shed_events",
               static_cast<std::size_t>(shed_events_.load(std::memory_order_relaxed)))
        .field("shed_blocks",
               static_cast<std::size_t>(shed_blocks_.load(std::memory_order_relaxed)))
        .field("shed_samples",
               static_cast<std::size_t>(shed_samples_.load(std::memory_order_relaxed)))
        .field("watchdog_ticks",
               static_cast<std::size_t>(
                   watchdog_ticks_.load(std::memory_order_relaxed)))
        .field("source_faults",
               static_cast<std::size_t>(
                   source_faults_.load(std::memory_order_relaxed)))
        .field("source_fault_cause", to_string(src.cause));
  }
  // The compiled-plan cache is process-wide (sessions resolve their plans
  // through it in configure/retune), so its stats describe every engine in
  // the process, not just this one.
  const core::CompiledPlanCache::Stats cache = core::CompiledPlanCache::instance().stats();
  JsonLine cache_line;
  cache_line.field("lookups", static_cast<std::size_t>(cache.lookups))
      .field("hits", static_cast<std::size_t>(cache.hits))
      .field("misses", static_cast<std::size_t>(cache.misses))
      .field("evictions", static_cast<std::size_t>(cache.evictions))
      .field("hit_rate", cache.lookups > 0 ? static_cast<double>(cache.hits) /
                                                 static_cast<double>(cache.lookups)
                                           : 0.0)
      .field("compile_seconds", cache.compile_seconds)
      .field("entries", cache.entries)
      .field("capacity", cache.capacity);
  // Latency distributions: nanosecond samples, reported in milliseconds.
  // Quantiles are log-bucket upper bounds (see metrics.hpp), not exact.
  JsonLine latency_line;
  latency_line.object("service_pass_ms", service_pass_ns_.to_json(1e-6))
      .object("pump_block_ms", pump_block_ns_.to_json(1e-6));
  std::vector<JsonLine> session_lines;
  for (const auto& s : snapshot()) {
    const SessionStats st = s->stats();
    const FaultInfo fault = s->last_fault();
    JsonLine line;
    line.field("id", static_cast<std::size_t>(s->id()))
        .field("backend", s->backend_name())
        .field("plan", s->plan_name())
        .field("policy", to_string(s->policy()))
        .field("closed", s->closed())
        .field("paused", s->paused())
        .field("weight", static_cast<double>(s->weight()))
        .field("blocks_enqueued", static_cast<std::size_t>(st.blocks_enqueued))
        .field("samples_enqueued", static_cast<std::size_t>(st.samples_enqueued))
        .field("blocks_processed", static_cast<std::size_t>(st.blocks_processed))
        .field("samples_processed", static_cast<std::size_t>(st.samples_processed))
        .field("samples_out", static_cast<std::size_t>(st.samples_out))
        .field("chunks_polled", static_cast<std::size_t>(st.chunks_polled))
        .field("input_drop_blocks", static_cast<std::size_t>(st.input_drop_blocks))
        .field("input_drop_samples", static_cast<std::size_t>(st.input_drop_samples))
        .field("output_drop_chunks", static_cast<std::size_t>(st.output_drop_chunks))
        .field("output_drop_samples",
               static_cast<std::size_t>(st.output_drop_samples))
        .field("max_queue_depth", static_cast<std::size_t>(st.max_queue_depth))
        .field("retunes_applied", static_cast<std::size_t>(st.retunes_applied))
        .field("retunes_rejected", static_cast<std::size_t>(st.retunes_rejected))
        .field("gaps", static_cast<std::size_t>(st.gaps))
        .field("last_retune_block", static_cast<std::size_t>(st.last_retune_block))
        .field("service_passes", static_cast<std::size_t>(st.service_passes))
        .field("health", to_string(s->health()))
        .field("faults", static_cast<std::size_t>(st.faults))
        .field("restarts", static_cast<std::size_t>(st.restarts))
        .field("shed_events", static_cast<std::size_t>(st.shed_events))
        .field("shed_samples", static_cast<std::size_t>(st.shed_samples))
        .field("last_fault_cause", to_string(fault.cause))
        .field("last_fault_block", static_cast<std::size_t>(fault.block_index))
        .field("msamples_per_s",
               elapsed > 0.0
                   ? static_cast<double>(st.samples_processed) / elapsed / 1e6
                   : 0.0);
    session_lines.push_back(std::move(line));
  }
  JsonLine root;
  root.object("engine", engine_line)
      .object("plan_cache", cache_line)
      .object("latency", latency_line)
      .array("sessions", session_lines);
  return root.str();
}

// ------------------------------------------------------------ drain helper

void drain_each(StreamEngine& engine,
                const std::vector<std::shared_ptr<Session>>& sessions,
                const std::function<void(std::size_t, StreamChunk&&)>& on_chunk) {
  for (;;) {
    const auto token = engine.output_token();  // before polling: no lost wakeup
    bool any = false;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      for (auto& chunk : sessions[i]->poll()) {
        on_chunk(i, std::move(chunk));
        any = true;
      }
    }
    if (any) continue;
    bool done = true;
    for (const auto& s : sessions) done = done && engine.finished(*s);
    if (done) return;
    engine.wait_output(token);  // block until a delivery/close/stop event
  }
}

std::vector<std::vector<StreamChunk>> drain_all(
    StreamEngine& engine, const std::vector<std::shared_ptr<Session>>& sessions) {
  std::vector<std::vector<StreamChunk>> out(sessions.size());
  drain_each(engine, sessions, [&out](std::size_t i, StreamChunk&& chunk) {
    out[i].push_back(std::move(chunk));
  });
  return out;
}

std::vector<core::IqSample> flatten(const std::vector<StreamChunk>& chunks) {
  std::vector<core::IqSample> iq;
  std::size_t total = 0;
  for (const auto& c : chunks) total += c.iq.size();
  iq.reserve(total);
  for (const auto& c : chunks) iq.insert(iq.end(), c.iq.begin(), c.iq.end());
  return iq;
}

}  // namespace twiddc::stream
