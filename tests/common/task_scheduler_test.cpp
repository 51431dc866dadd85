// TaskScheduler: per-worker run queues, targeted submission, work stealing
// off a busy worker's queue, batch-cyclic yield fairness, and a worker that
// survives a throwing task.  Runs under TSan in CI alongside the stream
// suite.
//
// Every latch (and anything else a task touches) is declared before its
// TaskScheduler: the scheduler's destructor joins the workers first, so a
// task still queued when an assertion bails out never outlives its state.
#include "src/common/task_scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace twiddc::common {
namespace {

/// Polls `latch` for up to 30 s without executing anything itself; false on
/// timeout, so a lost task fails the test instead of hanging it.
bool wait_for(std::latch& latch) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!latch.try_wait()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(TaskScheduler, RunsEverySubmittedTask) {
  constexpr int kTasks = 200;
  std::latch done(kTasks);
  std::atomic<int> ran{0};
  TaskScheduler sched(3);
  for (int i = 0; i < kTasks; ++i)
    sched.submit([&ran, &done] {
      ran.fetch_add(1, std::memory_order_relaxed);
      done.count_down();
    });
  done.wait();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_GE(sched.stats().executed, static_cast<std::uint64_t>(kTasks));
}

TEST(TaskScheduler, TargetedSubmissionRunsOnTheTargetWorker) {
  constexpr int kWorkers = 4;
  std::latch ran[kWorkers] = {std::latch(1), std::latch(1), std::latch(1),
                              std::latch(1)};
  int seen[kWorkers] = {-1, -1, -1, -1};
  TaskScheduler sched(kWorkers);
  const auto all_parked = [&sched] {
    for (const auto& s : sched.worker_snapshot())
      if (!s.sleeping) return false;
    return true;
  };
  for (int w = 0; w < kWorkers; ++w) {
    // A worker still spinning down from the previous round (or from spawn)
    // is an idle thief: it can take the task off the target's deque between
    // the target's inbox drain and its pop.  Start each round quiet.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!all_parked() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(all_parked());
    // No competing work anywhere, so nothing can steal the task before its
    // home worker wakes.
    sched.submit_to(w, [&sched, &ran, &seen, w] {
      seen[w] = sched.current_worker_index();
      ran[w].count_down();
    });
    ASSERT_TRUE(wait_for(ran[w]));
    EXPECT_EQ(seen[w], w);
  }
  EXPECT_EQ(sched.current_worker_index(), -1);  // this thread is no worker
}

TEST(TaskScheduler, IdleWorkerStealsFromABusyWorkersDeque) {
  constexpr int kQueued = 6;
  std::latch blocker_done(1);
  std::atomic<int> done{0};
  TaskScheduler sched(2);
  // The worker that claims this task yield()s work into its own queue and
  // then parks inside the task; only the other worker can run that work,
  // and only by stealing it from the busy worker.
  sched.submit_to(0, [&sched, &done, &blocker_done] {
    for (int i = 0; i < kQueued; ++i)
      sched.yield([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    while (done.load(std::memory_order_relaxed) < kQueued)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    blocker_done.count_down();
  });
  blocker_done.wait();
  EXPECT_EQ(done.load(), kQueued);
  EXPECT_GE(sched.stats().stolen, static_cast<std::uint64_t>(kQueued));
}

TEST(TaskScheduler, YieldingActorsAlternateBatchCyclically) {
  // Two cooperative actors on ONE worker, each yield()ing between slices:
  // the batch-cyclic inbox discipline must interleave them instead of
  // letting the re-submitted actor monopolise the queue.
  constexpr int kSlices = 6;
  std::latch done(2);
  std::mutex mu;
  std::vector<char> order;  // guarded by mu
  TaskScheduler sched(1);
  struct Actor {
    TaskScheduler* sched;
    std::latch* done;
    std::mutex* mu;
    std::vector<char>* order;
    char name;
    int left = kSlices;
    void run() {
      {
        std::lock_guard<std::mutex> lock(*mu);
        order->push_back(name);
      }
      if (--left == 0) {
        done->count_down();
        return;
      }
      sched->yield([self = *this]() mutable { self.run(); });
    }
  };
  // A starter task enrolls both actors from inside the worker, so they
  // land in one inbox batch deterministically (no startup race where the
  // worker drains one before the other is submitted).
  sched.submit_to(0, [&sched, &done, &mu, &order] {
    sched.yield([&sched, &done, &mu, &order] {
      Actor{&sched, &done, &mu, &order, 'a'}.run();
    });
    sched.yield([&sched, &done, &mu, &order] {
      Actor{&sched, &done, &mu, &order, 'b'}.run();
    });
  });
  ASSERT_TRUE(wait_for(done));
  ASSERT_EQ(order.size(), static_cast<std::size_t>(2 * kSlices));
  // Once both actors are live, no actor may run more than twice in a row
  // (twice covers the startup batch that held only one of them).
  int longest_run = 1;
  int current = 1;
  for (std::size_t i = 1; i < order.size(); ++i) {
    current = order[i] == order[i - 1] ? current + 1 : 1;
    longest_run = std::max(longest_run, current);
  }
  EXPECT_LE(longest_run, 2) << std::string(order.begin(), order.end());
}

TEST(TaskScheduler, AThrowingTaskDoesNotStopItsWorker) {
  // A task's exception must not escape into the worker thread (that would
  // terminate the process) nor end the worker's loop: the next task queued
  // on the same worker still runs.
  std::latch ran(1);
  int seen = -1;
  TaskScheduler sched(1);
  sched.submit_to(0, [] { throw std::runtime_error("task exploded"); });
  sched.submit_to(0, [&sched, &ran, &seen] {
    seen = sched.current_worker_index();
    ran.count_down();
  });
  ASSERT_TRUE(wait_for(ran));
  EXPECT_EQ(seen, 0);
  EXPECT_GE(sched.stats().executed, 2u);
}

TEST(TaskScheduler, ManyProducersManyTasksUnderChurn) {
  // Stress: 4 client threads firehose targeted and untargeted tasks at a
  // 3-worker scheduler (TSan coverage for inbox, deque, steal, sleep).
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::latch done(kProducers * kPerProducer);
  std::atomic<int> ran{0};
  TaskScheduler sched(3);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        auto task = [&ran, &done] {
          ran.fetch_add(1, std::memory_order_relaxed);
          done.count_down();
        };
        if (i % 3 == 0)
          sched.submit(task);
        else
          sched.submit_to((p + i) % 3, task);
      }
    });
  }
  for (auto& t : producers) t.join();
  done.wait();
  EXPECT_EQ(ran.load(), kProducers * kPerProducer);
}

TEST(TaskScheduler, WorkerCountIsFixedAndClampedToOne) {
  TaskScheduler fixed(3);
  EXPECT_EQ(fixed.workers(), 3);
  TaskScheduler floor(0);  // clamped to one worker
  EXPECT_EQ(floor.workers(), 1);
  TaskScheduler negative(-2);
  EXPECT_EQ(negative.workers(), 1);
}

TEST(TaskScheduler, WorkerSnapshotCoversEverySlot) {
  TaskScheduler sched(4);
  const auto snap = sched.worker_snapshot();
  ASSERT_EQ(snap.size(), 4u);
}

}  // namespace
}  // namespace twiddc::common
