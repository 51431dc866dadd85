#include "src/common/task_scheduler.hpp"

#include <algorithm>
#include <utility>

#include "src/common/trace.hpp"

namespace twiddc::common {
namespace {

constexpr trace::Category kTraceCat = trace::Category::kSched;

// Worker identity for yield()/current_worker_index().  Keyed by scheduler
// pointer, so a worker of one scheduler is no worker of another.
thread_local TaskScheduler* tls_scheduler = nullptr;
thread_local int tls_worker = -1;

}  // namespace

// ------------------------------------------------------------------ Deque

TaskScheduler::Deque::~Deque() {
  // Single-threaded by now (workers joined): drain unrun nodes, then free
  // every array generation.
  while (TaskNode* n = pop_bottom()) delete n;
  for (Array* a : retired_) delete a;
  delete array_.load(std::memory_order_relaxed);
}

void TaskScheduler::Deque::push_bottom(TaskNode* n) {
  const std::size_t b = bottom_.load(std::memory_order_relaxed);
  const std::size_t t = top_.load(std::memory_order_acquire);
  Array* a = array_.load(std::memory_order_relaxed);
  if (b - t >= a->capacity) a = grow(a, b, t);
  a->put(b, n, std::memory_order_release);
  // seq_cst publish so a thief's (top, bottom) reads and a parking worker's
  // maybe_nonempty() probe order against the sleeping-flag handshake.
  bottom_.store(b + 1, std::memory_order_seq_cst);
}

TaskScheduler::TaskNode* TaskScheduler::Deque::pop_bottom() {
  const std::size_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Array* a = array_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_seq_cst);  // claim before reading top
  std::size_t t = top_.load(std::memory_order_seq_cst);
  if (static_cast<std::ptrdiff_t>(t - b) > 0) {
    bottom_.store(b + 1, std::memory_order_relaxed);  // empty: undo
    return nullptr;
  }
  TaskNode* n = a->get(b, std::memory_order_relaxed);
  if (t == b) {
    // Last element: race the thieves for it.
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      n = nullptr;  // a thief won
    bottom_.store(b + 1, std::memory_order_relaxed);
  }
  return n;
}

TaskScheduler::TaskNode* TaskScheduler::Deque::steal_top() {
  std::size_t t = top_.load(std::memory_order_seq_cst);
  const std::size_t b = bottom_.load(std::memory_order_seq_cst);
  if (static_cast<std::ptrdiff_t>(b - t) <= 0) return nullptr;
  Array* a = array_.load(std::memory_order_acquire);
  TaskNode* n = a->get(t, std::memory_order_acquire);
  // top_ only ever grows, so success means we own cell t exclusively.
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed))
    return nullptr;  // lost to the owner or another thief; caller retries
  return n;
}

TaskScheduler::Deque::Array* TaskScheduler::Deque::grow(Array* old,
                                                        std::size_t bottom,
                                                        std::size_t top) {
  Array* bigger = new Array(old->capacity * 2);
  for (std::size_t i = top; i != bottom; ++i)
    bigger->put(i, old->get(i, std::memory_order_relaxed),
                std::memory_order_relaxed);
  retired_.push_back(old);  // thieves may still hold it; freed in the dtor
  array_.store(bigger, std::memory_order_release);
  return bigger;
}

// -------------------------------------------------------------- lifecycle

TaskScheduler::TaskScheduler(int threads) {
  const int workers = std::max(1, threads);
  // Every slot exists before any thread (or snapshot reader) does.
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->index = w;
    workers_.push_back(std::move(worker));
  }
  for (int w = 0; w < workers; ++w)
    workers_[static_cast<std::size_t>(w)]->thread =
        std::thread([this, w] { worker_loop(w); });
}

std::vector<TaskScheduler::WorkerSnapshot> TaskScheduler::worker_snapshot()
    const {
  std::vector<WorkerSnapshot> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) {
    WorkerSnapshot s;
    s.queue_depth =
        w->deque.size_approx() + w->inbox_size.load(std::memory_order_relaxed);
    s.sleeping = w->sleeping.load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

void TaskScheduler::shutdown() {
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& w : workers_) wake_worker(*w);
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

TaskScheduler::~TaskScheduler() {
  shutdown();
  // Unrun inbox tasks are destroyed here; deques self-drain in ~Deque.
  // Held under the inbox mutex to narrow (not eliminate -- see the class
  // contract) the window against an external submit racing destruction.
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->inbox_mu);
    for (TaskNode* n : w->inbox) delete n;
    w->inbox.clear();
  }
}

// ------------------------------------------------------------- submission

void TaskScheduler::submit_to(int w, Task t) {
  if (stop_.load(std::memory_order_acquire)) return;  // shutting down: drop
  auto& target = *workers_[static_cast<std::size_t>(w) % workers_.size()];
  auto* node = new TaskNode{std::move(t)};
  {
    std::lock_guard<std::mutex> lock(target.inbox_mu);
    target.inbox.push_back(node);
    target.inbox_size.store(target.inbox.size(), std::memory_order_seq_cst);
  }
  wake_worker(target);  // targeted: nobody else is disturbed...
  // ...unless the target is stuck inside a task, in which case the new
  // inbox entry is stealable and a parked sibling may as well come get it.
  if (target.running.load(std::memory_order_seq_cst)) maybe_wake_sleeper();
}

void TaskScheduler::submit(Task t) {
  submit_to(static_cast<int>(round_robin_.fetch_add(
                1, std::memory_order_relaxed)),
            std::move(t));
}

void TaskScheduler::yield(Task t) {
  const int w = current_worker_index();
  if (w < 0) {
    submit(std::move(t));
    return;
  }
  submit_to(w, std::move(t));
}

int TaskScheduler::current_worker_index() const {
  return tls_scheduler == this ? tls_worker : -1;
}

// --------------------------------------------------------------- workers

void TaskScheduler::run_node(TaskNode* n) {
  executed_.fetch_add(1, std::memory_order_relaxed);
  // Tasks own their error handling (Session::record_failure); an escape
  // here would otherwise take the whole process down via the noexcept
  // thread trampoline.
  try {
    n->fn();
  } catch (...) {
  }
  delete n;
}

std::size_t TaskScheduler::drain_inbox(Worker& me) {
  std::vector<TaskNode*> batch;
  {
    std::lock_guard<std::mutex> lock(me.inbox_mu);
    batch.swap(me.inbox);
    me.inbox_size.store(0, std::memory_order_seq_cst);
  }
  // Reversed, so the owner's LIFO bottom pops execute the batch in
  // submission order -- the batch-cyclic fairness guarantee.
  for (auto it = batch.rbegin(); it != batch.rend(); ++it)
    me.deque.push_bottom(*it);
  if (batch.size() > 1) maybe_wake_sleeper();  // surplus is stealable
  return batch.size();
}

TaskScheduler::TaskNode* TaskScheduler::try_steal(int self) {
  const std::size_t n = workers_.size();
  // Rotate the first victim so concurrent thieves spread out.
  const std::size_t start = static_cast<std::size_t>(self) + 1;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t v = (start + k) % n;
    if (static_cast<int>(v) == self) continue;
    if (TaskNode* node = workers_[v]->deque.steal_top()) {
      stolen_.fetch_add(1, std::memory_order_relaxed);
      if (trace::enabled(kTraceCat)) {
        // arg0 = victim, arg1 = thief.
        static const std::uint16_t kName = trace::intern("steal");
        trace::emit(kTraceCat, kName, trace::Phase::kInstant, v,
                    static_cast<std::uint64_t>(self));
      }
      return node;
    }
  }
  // Deques are dry everywhere.
  // A BUSY victim's inbox is work too: a worker drains its own inbox only
  // when its deque runs dry, so without this sweep a batch queued behind a
  // grinding worker (e.g. a session queued behind a long one) would be
  // pinned there while everyone else idles -- the static-shard pathology
  // this scheduler exists to kill.  Gated on the victim being inside a
  // task: an idle victim was already woken by its submitter and will drain
  // the inbox itself momentarily (and the gate keeps targeted submission
  // to a quiet worker deterministic).  FIFO take, so stealing never
  // reorders a victim's round.
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t v = (start + k) % n;
    if (static_cast<int>(v) == self) continue;
    Worker& victim = *workers_[v];
    if (!victim.running.load(std::memory_order_seq_cst)) continue;
    if (victim.inbox_size.load(std::memory_order_seq_cst) == 0) continue;
    std::lock_guard<std::mutex> lock(victim.inbox_mu);
    if (victim.inbox.empty()) continue;
    TaskNode* node = victim.inbox.front();
    victim.inbox.erase(victim.inbox.begin());
    victim.inbox_size.store(victim.inbox.size(), std::memory_order_seq_cst);
    stolen_.fetch_add(1, std::memory_order_relaxed);
    if (trace::enabled(kTraceCat)) {
      static const std::uint16_t kName = trace::intern("steal_inbox");
      trace::emit(kTraceCat, kName, trace::Phase::kInstant, v,
                  static_cast<std::uint64_t>(self));
    }
    return node;
  }
  steal_failures_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void TaskScheduler::wake_worker(Worker& w) {
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  if (trace::enabled(kTraceCat)) {
    static const std::uint16_t kName = trace::intern("wakeup");
    trace::emit(kTraceCat, kName, trace::Phase::kInstant,
                static_cast<std::uint64_t>(w.index), 0);
  }
  w.wake.fetch_add(1, std::memory_order_seq_cst);
  w.wake.notify_all();
}

void TaskScheduler::maybe_wake_sleeper() {
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  for (const auto& w : workers_) {
    if (w->sleeping.load(std::memory_order_seq_cst)) {
      wake_worker(*w);
      return;
    }
  }
}

bool TaskScheduler::any_work_visible(const Worker& me) const {
  if (me.inbox_size.load(std::memory_order_seq_cst) != 0) return true;
  for (const auto& w : workers_)
    if (w->deque.maybe_nonempty() ||
        w->inbox_size.load(std::memory_order_seq_cst) != 0)
      return true;
  return false;
}

void TaskScheduler::worker_loop(int w) {
  tls_scheduler = this;
  tls_worker = w;
  trace::set_thread_name("worker" + std::to_string(w));
  Worker& me = *workers_[static_cast<std::size_t>(w)];
  const auto run = [this, &me](TaskNode* n) {
    // The running window is what lets thieves take this worker's queued
    // inbox while it is stuck inside a long task.
    me.running.store(true, std::memory_order_seq_cst);
    run_node(n);
    me.running.store(false, std::memory_order_seq_cst);
  };
  for (;;) {
    if (TaskNode* n = me.deque.pop_bottom()) {
      run(n);
      continue;
    }
    if (drain_inbox(me) > 0) continue;
    if (TaskNode* n = try_steal(w)) {
      run(n);
      continue;
    }
    // Park on the private eventcount.  Token first, then the sleeping flag,
    // then one full recheck: a producer either sees sleeping == true (and
    // bumps our wake) or its push is visible to the recheck -- both sides
    // use seq_cst, so the Dekker handshake cannot lose the task.
    const std::uint32_t token = me.wake.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    me.sleeping.store(true, std::memory_order_seq_cst);
    if (!any_work_visible(me) && !stop_.load(std::memory_order_acquire))
      me.wake.wait(token, std::memory_order_acquire);
    me.sleeping.store(false, std::memory_order_seq_cst);
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

}  // namespace twiddc::common
