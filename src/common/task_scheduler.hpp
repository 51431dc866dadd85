// twiddc::common -- the task scheduler under the stream engine.
//
// One FIFO run queue behind a mutex and a condition variable, served by a
// fixed set of worker threads.  The client is stream::StreamEngine, whose
// sessions are conservative actors (PAPERS: Baran & Lahlou): each one's own
// state machine already guarantees a single pass at a time, so all the
// scheduler has to do is hand runnable tasks to free workers.
//
//   * FIFO rounds: a task re-submitted from inside a task goes behind every
//     task already queued, so N actors that re-queue themselves after each
//     slice take turns -- each makes bounded progress per round;
//   * parked-worker wakeups: the mutex also guards the count of parked
//     workers, and submit() notifies one only when that count is non-zero;
//     a busy scheduler takes no condition-variable call at all;
//   * a fixed worker set: the count is chosen at construction and never
//     changes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace twiddc::common {

class TaskScheduler {
 public:
  using Task = std::function<void()>;

  /// Counters for tests and stats_json (monotonic since construction).
  struct Stats {
    std::uint64_t executed = 0;  ///< tasks run, including ones that threw
    std::uint64_t wakeups = 0;   ///< submissions that woke a parked worker
    std::uint64_t threw = 0;     ///< tasks whose exception a worker caught
  };

  /// Spawns `threads` persistent worker threads (clamped to >= 1).  The
  /// count is fixed for the scheduler's lifetime.
  explicit TaskScheduler(int threads);
  /// Joins the workers.  Shutdown is a drain, not a drop: the workers run
  /// every task already queued before they exit, but submissions that
  /// arrive after shutdown began are dropped -- so a self-resubmitting
  /// task terminates, and anything it re-queued late is destroyed unrun.
  /// Clients whose tasks must not do real work during teardown must gate
  /// them on their own stop flag (StreamEngine does).
  ///
  /// As with any C++ object, EXTERNAL threads must not race submit()
  /// against destruction itself -- the "drop" guarantee covers submissions
  /// from tasks, which the destructor's join inherently serializes with.
  ~TaskScheduler();

  /// Stops the workers and joins them (the first half of destruction;
  /// idempotent).  Lets an owner read final stats() -- which include the
  /// shutdown drain -- before destroying the object.
  void shutdown();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  [[nodiscard]] int workers() const { return static_cast<int>(threads_.size()); }

  /// Queues `t` at the tail of the run queue and wakes one parked worker,
  /// if any.  Any thread.  After shutdown began the task is dropped:
  /// destroyed unrun, never queued.
  void submit(Task t);

  [[nodiscard]] Stats stats() const {
    Stats s;
    s.executed = executed_.load(std::memory_order_relaxed);
    s.wakeups = wakeups_.load(std::memory_order_relaxed);
    s.threw = threw_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  void worker_loop(int w);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;  // guarded by mu_
  int parked_ = 0;          // guarded by mu_: workers waiting on cv_
  bool stop_ = false;       // guarded by mu_
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  std::atomic<std::uint64_t> threw_{0};
  std::vector<std::thread> threads_;  // last: the workers use every member
};

}  // namespace twiddc::common
