// TaskScheduler: per-worker run queues, targeted submission, work stealing
// off a busy worker's deque, batch-cyclic yield fairness, and fork-join
// group semantics (completion + exception propagation).  Runs under TSan in
// CI alongside the stream suite.
#include "src/common/task_scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace twiddc::common {
namespace {

TEST(TaskScheduler, RunsEverySubmittedTask) {
  TaskScheduler sched(3);
  TaskScheduler::Group group;
  std::atomic<int> ran{0};
  constexpr int kTasks = 200;
  group.expect(kTasks);
  for (int i = 0; i < kTasks; ++i)
    sched.submit([&ran, group] {  // tasks hold the group BY VALUE (API rule)
      ran.fetch_add(1, std::memory_order_relaxed);
      group.complete();
    });
  sched.wait(group);
  group.rethrow_if_error();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_GE(sched.stats().executed, static_cast<std::uint64_t>(kTasks));
}

TEST(TaskScheduler, TargetedSubmissionRunsOnTheTargetWorker) {
  TaskScheduler sched(4);
  const auto all_parked = [&sched] {
    for (const auto& s : sched.worker_snapshot())
      if (!s.sleeping) return false;
    return true;
  };
  for (int w = 0; w < 4; ++w) {
    // A worker still spinning down from the previous round (or from spawn)
    // is an idle thief: it can take the task off the target's deque between
    // the target's inbox drain and its pop.  Start each round quiet.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!all_parked() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(all_parked());
    TaskScheduler::Group group;
    group.expect(1);
    int seen = -1;
    sched.submit_to(w, [&seen, &sched, group] {
      seen = sched.current_worker_index();
      group.complete();
    });
    // No competing work anywhere, so nothing can steal the task before its
    // home worker wakes; an external waiter's steal is the one exception --
    // park instead of wait()ing so the task stays put.
    while (!group.done() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(group.done());
    EXPECT_EQ(seen, w);
  }
  EXPECT_EQ(sched.current_worker_index(), -1);  // this thread is no worker
}

TEST(TaskScheduler, IdleWorkerStealsFromABusyWorkersDeque) {
  TaskScheduler sched(2);
  TaskScheduler::Group group;
  std::atomic<int> done{0};
  std::atomic<bool> started{false};
  constexpr int kChained = 6;
  group.expect(1);
  // The worker that claims this task parks inside it after pushing chained
  // work onto its OWN deque; only another executor can run those, and only
  // by stealing the deque top.
  sched.submit_to(0, [&sched, &done, &started, group] {
    started.store(true, std::memory_order_release);
    for (int i = 0; i < kChained; ++i)
      sched.submit_local([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    while (done.load(std::memory_order_relaxed) < kChained)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    group.complete();
  });
  // Hold this thread back until a WORKER has claimed the blocker -- if the
  // fork-join waiter below stole it first, it would run here, off-worker,
  // and submit_local would fall back to inbox submission (no steal needed).
  while (!started.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  sched.wait(group);
  group.rethrow_if_error();
  EXPECT_EQ(done.load(), kChained);
  EXPECT_GE(sched.stats().stolen, static_cast<std::uint64_t>(kChained));
}

TEST(TaskScheduler, YieldingActorsAlternateBatchCyclically) {
  // Two cooperative actors on ONE worker, each yield()ing between slices:
  // the batch-cyclic inbox discipline must interleave them instead of
  // letting the re-submitted actor monopolise the queue.
  TaskScheduler sched(1);
  TaskScheduler::Group group;
  std::mutex mu;
  std::vector<char> order;  // guarded by mu
  group.expect(2);
  constexpr int kSlices = 6;
  struct Actor {
    TaskScheduler* sched;
    TaskScheduler::Group group;  // by value: keeps the shared state alive
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
        group.complete();
        return;
      }
      sched->yield([self = *this]() mutable { self.run(); });
    }
  };
  // A starter task enrolls both actors from inside the worker, so they
  // land in one inbox batch deterministically (no startup race where the
  // worker drains one before the other is submitted).
  sched.submit_to(0, [&sched, &mu, &order, group] {
    sched.yield([&sched, &mu, &order, group] {
      Actor{&sched, group, &mu, &order, 'a'}.run();
    });
    sched.yield([&sched, &mu, &order, group] {
      Actor{&sched, group, &mu, &order, 'b'}.run();
    });
  });
  // Observe passively (no sched.wait): a fork-join waiter is itself an
  // executor -- it may steal an actor and run it in parallel, which is
  // correct but makes single-worker round order unobservable.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!group.done() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(group.done());
  group.rethrow_if_error();
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

TEST(TaskScheduler, GroupPropagatesTheFirstException) {
  TaskScheduler sched(2);
  TaskScheduler::Group group;
  group.expect(3);
  sched.submit([group] { group.complete(); });
  sched.submit([group] {
    group.fail(std::make_exception_ptr(std::runtime_error("tile exploded")));
  });
  sched.submit([group] { group.complete(); });
  sched.wait(group);
  EXPECT_THROW(group.rethrow_if_error(), std::runtime_error);
  // A second rethrow is a no-op: the error was consumed.
  group.rethrow_if_error();
}

TEST(TaskScheduler, ExternalWaiterHelpsExecuteChainedWork) {
  // A chain that keeps re-submitting to a single worker's deque while the
  // fork-join caller waits: the caller's steal loop must be able to help
  // (and at minimum the chain must complete promptly).
  TaskScheduler sched(1);
  TaskScheduler::Group group;
  std::atomic<int> hops{0};
  group.expect(1);
  struct Hopper {
    TaskScheduler* sched;
    TaskScheduler::Group group;  // by value
    std::atomic<int>* hops;
    void run() const {
      if (hops->fetch_add(1, std::memory_order_relaxed) + 1 == 500) {
        group.complete();
        return;
      }
      auto next = *this;
      sched->submit_local([next] { next.run(); });
    }
  };
  sched.submit_to(0, [&sched, &hops, group] { Hopper{&sched, group, &hops}.run(); });
  sched.wait(group);
  group.rethrow_if_error();
  EXPECT_EQ(hops.load(), 500);
}

TEST(TaskScheduler, ManyProducersManyTasksUnderChurn) {
  // Stress: 4 client threads firehose targeted and untargeted tasks at a
  // 3-worker scheduler (TSan coverage for inbox, deque, steal, sleep).
  TaskScheduler sched(3);
  TaskScheduler::Group group;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::atomic<int> ran{0};
  group.expect(kProducers * kPerProducer);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        auto task = [&ran, group] {
          ran.fetch_add(1, std::memory_order_relaxed);
          group.complete();
        };
        if (i % 3 == 0)
          sched.submit(task);
        else
          sched.submit_to((p + i) % 3, task);
      }
    });
  }
  for (auto& t : producers) t.join();
  sched.wait(group);
  group.rethrow_if_error();
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
