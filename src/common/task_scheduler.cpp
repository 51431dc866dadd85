#include "src/common/task_scheduler.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "src/common/trace.hpp"

namespace twiddc::common {
namespace {

constexpr trace::Category kTraceCat = trace::Category::kSched;

}  // namespace

TaskScheduler::TaskScheduler(int threads) {
  const int workers = std::max(1, threads);
  threads_.reserve(static_cast<std::size_t>(workers));
  try {
    for (int w = 0; w < workers; ++w)
      threads_.emplace_back([this, w] { worker_loop(w); });
  } catch (...) {
    shutdown();  // a spawn failed: join the workers already running
    throw;
  }
}

void TaskScheduler::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_)
    if (t.joinable()) t.join();
}

TaskScheduler::~TaskScheduler() { shutdown(); }

void TaskScheduler::submit(Task t) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;  // shutting down: drop
    queue_.push_back(std::move(t));
    // No parked worker: every worker is inside a task and takes the queue
    // head when it finishes, so nobody needs a notify.
    if (parked_ == 0) return;
    depth = queue_.size();
  }
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  if (trace::enabled(kTraceCat)) {
    // arg0 = queue depth after this submission.
    static const std::uint16_t kName = trace::intern("wakeup");
    trace::emit(kTraceCat, kName, trace::Phase::kInstant, depth, 0);
  }
  cv_.notify_one();
}

void TaskScheduler::worker_loop(int w) {
  trace::set_thread_name("worker" + std::to_string(w));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (queue_.empty()) {
      // Shutdown is a drain: a worker exits only once the queue is empty.
      if (stop_) return;
      ++parked_;
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      --parked_;
      continue;
    }
    Task task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    executed_.fetch_add(1, std::memory_order_relaxed);
    // Tasks own their error handling (the engine's run_session turns an
    // escaping service exception into a session fault); an escape here
    // would otherwise take the whole process down via the noexcept thread
    // trampoline.  Counted, so a swallowed exception stays visible.
    try {
      task();
    } catch (...) {
      threw_.fetch_add(1, std::memory_order_relaxed);
    }
    task = nullptr;  // release the captures outside the lock
    lock.lock();
  }
}

}  // namespace twiddc::common
