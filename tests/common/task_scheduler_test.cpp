// TaskScheduler: one shared FIFO run queue, queued work running while a
// worker is busy, FIFO rounds for re-submitting actors, the shutdown drain,
// and a worker that survives a throwing task.  Runs under TSan in CI
// alongside the stream suite.
//
// Every latch (and anything else a task touches) is declared before its
// TaskScheduler: the scheduler's destructor joins the workers first, so a
// task still queued when an assertion bails out never outlives its state.
#include "src/common/task_scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
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

TEST(TaskScheduler, QueuedTasksRunWhileAWorkerIsBusy) {
  constexpr int kQueued = 6;
  std::latch queued_done(kQueued);
  std::latch blocker_done(1);
  bool all_ran = false;
  TaskScheduler sched(2);
  // The worker that claims this task queues work and then waits inside the
  // task; only the other worker can run that work.
  sched.submit([&sched, &queued_done, &blocker_done, &all_ran] {
    for (int i = 0; i < kQueued; ++i)
      sched.submit([&queued_done] { queued_done.count_down(); });
    all_ran = wait_for(queued_done);
    blocker_done.count_down();
  });
  blocker_done.wait();
  EXPECT_TRUE(all_ran);
}

TEST(TaskScheduler, YieldingActorsAlternateBatchCyclically) {
  // Two cooperative actors on ONE worker, each re-submitting itself between
  // slices: the FIFO queue must interleave them instead of letting the
  // re-submitted actor monopolise the worker.
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
      sched->submit([self = *this]() mutable { self.run(); });
    }
  };
  // A starter task enrolls both actors from inside the worker, so both are
  // queued before either runs (no startup race where the worker runs one
  // before the other is submitted).
  sched.submit([&sched, &done, &mu, &order] {
    sched.submit([&sched, &done, &mu, &order] {
      Actor{&sched, &done, &mu, &order, 'a'}.run();
    });
    sched.submit([&sched, &done, &mu, &order] {
      Actor{&sched, &done, &mu, &order, 'b'}.run();
    });
  });
  ASSERT_TRUE(wait_for(done));
  ASSERT_EQ(order.size(), static_cast<std::size_t>(2 * kSlices));
  // Both actors are queued before either runs, so the FIFO queue alternates
  // them: no actor may run more than twice in a row.
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
  // on the same worker still runs, and the caught exception is counted.
  std::latch ran(1);
  TaskScheduler sched(1);
  sched.submit([] { throw std::runtime_error("task exploded"); });
  sched.submit([&ran] { ran.count_down(); });
  ASSERT_TRUE(wait_for(ran));
  EXPECT_EQ(sched.stats().threw, 1u);
  EXPECT_GE(sched.stats().executed, 2u);
}

TEST(TaskScheduler, ManyProducersManyTasksUnderChurn) {
  // Stress: 4 client threads firehose tasks at a 3-worker scheduler (TSan
  // coverage for the queue, parking and wakeups).
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::latch done(kProducers * kPerProducer);
  std::atomic<int> ran{0};
  TaskScheduler sched(3);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        sched.submit([&ran, &done] {
          ran.fetch_add(1, std::memory_order_relaxed);
          done.count_down();
        });
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

TEST(TaskScheduler, ShutdownRunsQueuedTasksAndDropsLaterOnes) {
  // StreamEngine::stop() relies on this contract: shutdown() runs every
  // task already queued and drops every later submission -- including the
  // ones the queued tasks make themselves.
  constexpr int kQueued = 8;
  std::latch queued(1);
  std::atomic<int> ran{0};
  std::atomic<int> late_ran{0};
  TaskScheduler sched(1);
  // The only worker sits in this task until shutdown has begun, so the
  // queued tasks can run only in the shutdown drain.
  sched.submit([&sched, &queued] {
    queued.wait();
    // A dropped submission destroys its task at once; an accepted one
    // stays queued behind this task.  Probe until one is dropped.
    for (;;) {
      auto probe = std::make_shared<int>(0);
      const std::weak_ptr<int> alive = probe;
      sched.submit([probe = std::move(probe)] {});
      if (alive.expired()) return;
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < kQueued; ++i)
    sched.submit([&sched, &ran, &late_ran] {
      ran.fetch_add(1, std::memory_order_relaxed);
      sched.submit([&late_ran] { late_ran.fetch_add(1, std::memory_order_relaxed); });
    });
  queued.count_down();
  sched.shutdown();
  EXPECT_EQ(ran.load(), kQueued);
  EXPECT_EQ(late_ran.load(), 0);
}

}  // namespace
}  // namespace twiddc::common
