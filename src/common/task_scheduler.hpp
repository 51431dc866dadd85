// twiddc::common -- work-stealing task scheduler.
//
// Replaces the broadcast WorkerPool (one published job, one global epoch,
// notify_all on every block) that PR 4 extracted from core::ChannelBank.
// The broadcast design made every wakeup global and every scheduling pass
// O(sessions): fine at bench scale, measurable beyond.  This scheduler is
// the conservative-asynchronous decomposition instead: per-element work
// items with local handshakes, no global barrier.
//
//   * one run queue per worker: a Chase-Lev-style deque (owner pushes and
//     pops at the bottom, any thread steals at the top with a CAS) fed by a
//     small mutexed inbox for cross-thread submission;
//   * targeted wakeups: one eventcount per worker; submit_to(w, task) bumps
//     only worker w -- nobody else leaves their futex;
//   * work stealing: a worker that runs dry sweeps the other deques top-
//     first, so skewed task sets (one hot session) rebalance instead of
//     stalling a static shard;
//   * batch-cyclic fairness: a worker drains its inbox only when its deque
//     is empty, so every task submitted in batch k runs before anything a
//     batch-k task re-submitted via yield() -- N actors on one worker each
//     make bounded progress per cycle;
//   * a fixed worker set: the count is chosen at construction and never
//     changes, so submit_to(w) always routes to worker w % workers() and
//     every worker is either running, stealing or parked in the one Dekker
//     park protocol below.
//
// The client is stream::StreamEngine: each session is an actor scheduled
// as a task on its home worker, and a stolen task migrates the session.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace twiddc::common {

class TaskScheduler {
 public:
  using Task = std::function<void()>;

  /// Counters for tests and stats_json (monotonic since construction).
  struct Stats {
    std::uint64_t executed = 0;  ///< tasks run to completion
    std::uint64_t stolen = 0;    ///< tasks taken from another queue's top
    std::uint64_t wakeups = 0;   ///< targeted eventcount bumps issued
    std::uint64_t steal_failures = 0;  ///< full steal sweeps that found nothing
  };

  /// Per-worker observability snapshot (approximate while work is in
  /// flight): queue depth and park state.
  struct WorkerSnapshot {
    std::size_t queue_depth = 0;  ///< deque + inbox entries
    bool sleeping = false;
  };

  /// Spawns `threads` persistent worker threads (clamped to >= 1).  The
  /// count is fixed for the scheduler's lifetime.
  explicit TaskScheduler(int threads);
  /// Joins the workers.  Shutdown is a drain, not a drop: each worker
  /// finishes the tasks already visible in its queues before exiting (it
  /// checks the stop flag only when it runs dry), but submissions that
  /// arrive after shutdown began are dropped -- so a self-resubmitting
  /// task terminates, and anything it re-queued late is destroyed unrun.
  /// Clients whose tasks must not do real work during teardown must gate
  /// them on their own stop flag (StreamEngine does).
  ///
  /// As with any C++ object, EXTERNAL threads must not race submit_to()
  /// against destruction itself -- the in-flight-submission "drop"
  /// guarantee covers worker-originated submissions (yields), which the
  /// destructor's join inherently serializes with.
  ~TaskScheduler();

  /// Stops the workers and joins them (the first half of destruction;
  /// idempotent).  Lets an owner read final stats() -- which include the
  /// shutdown drain -- before destroying the object.
  void shutdown();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Worker count (the submit_to routing modulus).
  [[nodiscard]] int workers() const { return static_cast<int>(workers_.size()); }

  /// Approximate per-worker queue depths and park state for every worker
  /// (index order).  Lock-free reads; depths race benignly with execution.
  [[nodiscard]] std::vector<WorkerSnapshot> worker_snapshot() const;

  /// Queues `t` on worker `w` (inbox, FIFO against other submissions) and
  /// wakes only that worker.  Any thread.  After the scheduler started
  /// shutting down the task is dropped.
  void submit_to(int w, Task t);

  /// submit_to with a rotating target -- distributes unpinned work.
  void submit(Task t);

  /// Re-queues `t` behind every task currently runnable on this worker (own
  /// inbox): the yield idiom for cooperative actors that exhausted their
  /// fairness quantum.  Falls back to submit() off-worker.
  void yield(Task t);

  /// Index of the calling thread within THIS scheduler, or -1.
  [[nodiscard]] int current_worker_index() const;

  [[nodiscard]] Stats stats() const {
    Stats s;
    s.executed = executed_.load(std::memory_order_relaxed);
    s.stolen = stolen_.load(std::memory_order_relaxed);
    s.wakeups = wakeups_.load(std::memory_order_relaxed);
    s.steal_failures = steal_failures_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct TaskNode {
    Task fn;
  };

  /// Chase-Lev-style deque over atomic TaskNode* cells.  The owner pushes
  /// and pops at the bottom without locks; any thread steals the top with a
  /// CAS.  top_ is monotonic, so the CAS has no ABA.  Growth reallocates
  /// the cell array and retires (not frees) the old one: a thief may still
  /// be reading a stale array, whose cells in [top, bottom) are identical
  /// by construction.  Retired arrays are freed with the deque.
  ///
  /// Memory ordering follows Le/Pop/Cohen/Nardelli ("Correct and Efficient
  /// Work-Stealing for Weak Memory Models") with the standalone fences
  /// replaced by seq_cst operations on bottom_/top_ -- stronger than
  /// required, but TSan models atomics (not fences), and the queues sit
  /// nowhere near the sample hot path.
  class Deque {
   public:
    Deque() : array_(new Array(64)) {}
    ~Deque();

    Deque(const Deque&) = delete;
    Deque& operator=(const Deque&) = delete;

    void push_bottom(TaskNode* n);    // owner only
    TaskNode* pop_bottom();           // owner only
    TaskNode* steal_top();            // any thread
    [[nodiscard]] bool maybe_nonempty() const {
      const std::size_t b = bottom_.load(std::memory_order_acquire);
      const std::size_t t = top_.load(std::memory_order_acquire);
      return static_cast<std::ptrdiff_t>(b - t) > 0;
    }
    /// Racy-but-bounded entry count (worker_snapshot).
    [[nodiscard]] std::size_t size_approx() const {
      const std::size_t b = bottom_.load(std::memory_order_acquire);
      const std::size_t t = top_.load(std::memory_order_acquire);
      const auto d = static_cast<std::ptrdiff_t>(b - t);
      return d > 0 ? static_cast<std::size_t>(d) : 0;
    }

   private:
    struct Array {
      explicit Array(std::size_t cap)
          : capacity(cap), mask(cap - 1), cells(cap) {}
      const std::size_t capacity;  // power of two
      const std::size_t mask;
      std::vector<std::atomic<TaskNode*>> cells;
      [[nodiscard]] TaskNode* get(std::size_t i, std::memory_order o) const {
        return cells[i & mask].load(o);
      }
      void put(std::size_t i, TaskNode* n, std::memory_order o) {
        cells[i & mask].store(n, o);
      }
    };

    Array* grow(Array* old, std::size_t bottom, std::size_t top);

    alignas(64) std::atomic<std::size_t> top_{0};
    alignas(64) std::atomic<std::size_t> bottom_{0};
    std::atomic<Array*> array_;
    std::vector<Array*> retired_;  // owner-only; freed in the destructor
  };

  struct Worker {
    Deque deque;
    std::mutex inbox_mu;
    std::vector<TaskNode*> inbox;          // guarded by inbox_mu
    std::atomic<std::size_t> inbox_size{0};  // cheap empty probe
    alignas(64) std::atomic<std::uint32_t> wake{0};  // per-worker eventcount
    std::atomic<bool> sleeping{false};
    std::atomic<bool> running{false};  ///< inside a task (inbox-steal gate)
    int index = 0;  ///< slot index (set before the thread spawns; immutable)
    std::thread thread;
  };

  void worker_loop(int w);
  void run_node(TaskNode* n);
  /// Moves the whole inbox into the deque (reversed, so bottom pops come
  /// out FIFO).  Returns the number of tasks moved.
  std::size_t drain_inbox(Worker& me);
  /// One sweep over the other workers' deque tops, then over the inboxes of
  /// workers stuck inside a task.
  TaskNode* try_steal(int self);
  void wake_worker(Worker& w);
  /// If anyone is parked, wake one sleeper so freshly stealable deque work
  /// (a drained batch) is not serialised on its owner.
  void maybe_wake_sleeper();
  [[nodiscard]] bool any_work_visible(const Worker& me) const;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint32_t> round_robin_{0};
  std::atomic<bool> stop_{false};
  std::atomic<int> sleepers_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> steal_failures_{0};
};

}  // namespace twiddc::common
