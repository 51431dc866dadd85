// twiddc::stream -- bounded lock-free ring buffer for cross-thread
// streaming.
//
// The per-session queues of the streaming engine: the pump thread produces
// feed blocks into a session's input ring, the session's worker consumes
// them and produces output chunks into the session's output ring, and the
// client thread consumes those via poll().  Each ring therefore runs
// single-producer/single-consumer in steady state -- but the drop-oldest
// backpressure policy lets the *producer* side evict the oldest element
// when the ring is full, which is a concurrent dequeue.  The slot-sequence
// design (one atomic sequence number per slot, claims by CAS on the
// head/tail counters) is safe for any number of producers and consumers,
// so eviction needs no extra machinery.
//
// Blocking is layered on top, not baked in: try_push/try_pop never wait,
// and callers that want to block compose wake_token()/wait() with their own
// predicate (engine stop flags, session close, ...).  Every successful
// push, pop, close() or wake() bumps an eventcount and notifies, so the
// read-token -> check-predicate -> wait(token) pattern never loses a
// wakeup.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace twiddc::stream {

template <typename T>
class BoundedRing {
 public:
  /// Capacity is rounded up to a power of two (>= 2).
  explicit BoundedRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    slots_ = std::vector<Slot>(cap);
    for (std::size_t i = 0; i < cap; ++i)
      slots_[i].seq.store(i, std::memory_order_relaxed);
    mask_ = cap - 1;
  }

  BoundedRing(const BoundedRing&) = delete;
  BoundedRing& operator=(const BoundedRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Approximate occupancy (exact when no operation is mid-flight).
  [[nodiscard]] std::size_t size() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

  /// Appends `v` unless the ring is full or closed.  `v` is moved from only
  /// on success, so callers may retry with the same object.
  bool try_push(T&& v) {
    if (closed()) return false;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & mask_];
      const std::size_t seq = s.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq - pos);
      if (dif == 0) {
        // Release on success: an acquire reader of tail_ (size()) must see
        // every write the producer made before claiming the slot -- the
        // engine's finished() protocol pairs ring-counter reads with the
        // session's busy_/has_pending_chunk_ flags and needs that ordering
        // on weakly-ordered CPUs.
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_release,
                                        std::memory_order_relaxed)) {
          s.value = std::move(v);
          s.seq.store(pos + 1, std::memory_order_release);
          bump();
          return true;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Removes the oldest element.  Works after close() until the ring is
  /// drained.
  std::optional<T> try_pop() {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & mask_];
      const std::size_t seq = s.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq - (pos + 1));
      if (dif == 0) {
        // Release for the same reason as try_push: a consumer's prior
        // writes (e.g. the worker's busy_ flag, set before popping) must be
        // visible to anyone who acquire-reads the advanced head_.
        if (head_.compare_exchange_weak(pos, pos + 1, std::memory_order_release,
                                        std::memory_order_relaxed)) {
          std::optional<T> out(std::move(s.value));
          s.value = T();  // drop payload refs now, not at overwrite time
          s.seq.store(pos + mask_ + 1, std::memory_order_release);
          bump();
          return out;
        }
      } else if (dif < 0) {
        return std::nullopt;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Fails all further pushes; queued elements stay poppable.
  void close() {
    closed_.store(true, std::memory_order_release);
    bump();
  }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }

  // Eventcount for blocking callers.  Usage:
  //   for (;;) {
  //     auto t = ring.wake_token();
  //     if (<predicate, e.g. try_push succeeded or stop flag>) break;
  //     ring.wait(t);
  //   }
  // The token must be read BEFORE checking the predicate; any ring activity
  // (or an external wake()) between the read and wait() makes wait() return
  // immediately.
  [[nodiscard]] std::uint32_t wake_token() const {
    return wake_.load(std::memory_order_acquire);
  }
  void wait(std::uint32_t token) const { wake_.wait(token, std::memory_order_acquire); }
  /// Wakes all waiters without changing ring state (for external predicate
  /// changes: engine stop, session close, pause toggles).
  void wake() { bump(); }

 private:
  struct Slot {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  void bump() {
    wake_.fetch_add(1, std::memory_order_release);
    wake_.notify_all();
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) mutable std::atomic<std::uint32_t> wake_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace twiddc::stream
