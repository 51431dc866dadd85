#include "src/common/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "src/common/json.hpp"

namespace twiddc::trace {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One ring slot.  Fields are individual relaxed atomics rather than a
/// seqlock: the writer is always the owning thread, so the only race is
/// writer-vs-snapshot, and the snapshot discards any slot the head says
/// may have been rewritten during the read (see Ring::collect).  Relaxed
/// atomics make that benign race defined behaviour (and TSan-clean)
/// without fencing the hot path.
struct Slot {
  std::atomic<std::uint64_t> ts{0};
  std::atomic<std::uint64_t> arg0{0};
  std::atomic<std::uint64_t> arg1{0};
  std::atomic<std::uint32_t> meta{0};  // name << 16 | category << 8 | phase
};

std::uint32_t pack_meta(std::uint16_t name, Category c, Phase ph) {
  return (static_cast<std::uint32_t>(name) << 16) |
         (static_cast<std::uint32_t>(c) << 8) | static_cast<std::uint32_t>(ph);
}

class Ring {
 public:
  Ring(std::uint32_t tid, std::size_t capacity)
      : tid_(tid), mask_(capacity - 1), slots_(capacity) {}

  /// Owner thread only.
  void push(Category c, std::uint16_t name, Phase ph, std::uint64_t arg0,
            std::uint64_t arg1, std::uint64_t ts_ns) {
    const std::uint64_t idx = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[idx & mask_];
    s.ts.store(ts_ns, std::memory_order_relaxed);
    s.arg0.store(arg0, std::memory_order_relaxed);
    s.arg1.store(arg1, std::memory_order_relaxed);
    s.meta.store(pack_meta(name, c, ph), std::memory_order_relaxed);
    // Release-publish: a reader that acquires head >= idx+1 sees this
    // slot's fields.
    head_.store(idx + 1, std::memory_order_release);
  }

  /// Any thread.  Appends the ring's valid events to `out` and returns the
  /// number of events dropped (overwritten or unreadable) since the last
  /// reset().  Concurrent writers are fine: the head is re-read after the
  /// slot pass, and any slot the writer may have reached meanwhile is
  /// discarded rather than returned torn.
  std::uint64_t collect(std::vector<TraceEvent>& out) const {
    const std::uint64_t floor = discard_before_.load(std::memory_order_acquire);
    const std::uint64_t h1 = head_.load(std::memory_order_acquire);
    const std::uint64_t cap = mask_ + 1;
    const std::uint64_t oldest = h1 > cap ? h1 - cap : 0;
    const std::uint64_t begin = std::max(floor, oldest);
    std::vector<TraceEvent> local;
    local.reserve(static_cast<std::size_t>(h1 - begin));
    for (std::uint64_t i = begin; i < h1; ++i) {
      const Slot& s = slots_[i & mask_];
      TraceEvent e;
      e.ts_ns = s.ts.load(std::memory_order_relaxed);
      e.arg0 = s.arg0.load(std::memory_order_relaxed);
      e.arg1 = s.arg1.load(std::memory_order_relaxed);
      const std::uint32_t meta = s.meta.load(std::memory_order_relaxed);
      e.name = static_cast<std::uint16_t>(meta >> 16);
      e.category = static_cast<Category>((meta >> 8) & 0xff);
      e.phase = static_cast<Phase>(meta & 0xff);
      e.tid = tid_;
      local.push_back(e);
    }
    // Anything the writer could have overwritten while we read (index <=
    // h2 - cap) is invalid; h2 - cap also covers the slot the writer may
    // be mid-store on right now (its head publication trails the stores).
    // The fence keeps the slot loads above ahead of the head re-read.
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t h2 = head_.load(std::memory_order_relaxed);
    const std::uint64_t valid_from = h2 >= cap ? h2 - cap + 1 : 0;
    std::uint64_t kept_from = begin;
    if (valid_from > begin) {
      const std::uint64_t skip = std::min(valid_from - begin, h1 - begin);
      local.erase(local.begin(),
                  local.begin() + static_cast<std::ptrdiff_t>(skip));
      kept_from = begin + skip;
    }
    out.insert(out.end(), local.begin(), local.end());
    return kept_from - floor;  // events since reset() that were lost
  }

  void discard_up_to_now() {
    discard_before_.store(head_.load(std::memory_order_acquire),
                          std::memory_order_release);
  }

  [[nodiscard]] std::uint32_t tid() const { return tid_; }

 private:
  const std::uint32_t tid_;
  const std::uint64_t mask_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> discard_before_{0};
};

/// Process-wide state.  Rings are shared_ptr so a snapshot taken after a
/// producer thread exits still reads its events; reset() frees them.
struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;
  std::vector<std::string> names;                      // id -> string
  std::unordered_map<std::string, std::uint16_t> ids;  // string -> id
  std::unordered_map<std::uint32_t, std::string> thread_names;
  std::uint32_t next_tid = 1;
  std::size_t ring_capacity = std::size_t{1} << 16;  // 64k events / thread
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives exiting threads
  return *r;
}

std::atomic<std::uint32_t> g_mask{0};

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

// A thread name set before the thread's ring exists (the common case:
// workers name themselves at spawn, tracing may be off) is stashed here
// and registered when the ring is created -- so naming a thread never
// allocates a ring.  Held by value, so a thread that never emits frees it
// at exit.
thread_local std::optional<std::string> tls_pending_name;

Ring& ring_for_this_thread() {
  thread_local std::shared_ptr<Ring> tls_ring = [] {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    auto ring = std::make_shared<Ring>(reg.next_tid++, reg.ring_capacity);
    reg.rings.push_back(ring);
    if (tls_pending_name) {
      reg.thread_names[ring->tid()] = std::move(*tls_pending_name);
      tls_pending_name.reset();
    }
    return ring;
  }();
  return *tls_ring;
}

const char* category_name(Category c) {
  switch (c) {
    case Category::kSched: return "sched";
    case Category::kStream: return "stream";
    case Category::kCache: return "cache";
  }
  return "?";
}

// Applies $TWIDDC_TRACE before main() so every twiddc binary honours it.
const bool g_env_applied = init_from_env();

}  // namespace

void set_enabled(std::uint32_t category_mask) {
  g_mask.store(category_mask & kAllCategories, std::memory_order_relaxed);
}

std::uint32_t enabled_mask() { return g_mask.load(std::memory_order_relaxed); }

bool enabled(Category c) {
  if (!(TWIDDC_TRACE_COMPILED_MASK & bit(c))) return false;
  return (g_mask.load(std::memory_order_relaxed) & bit(c)) != 0;
}

std::uint32_t parse_categories(const std::string& spec) {
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string tok = spec.substr(pos, comma - pos);
    // Trim ASCII whitespace.
    while (!tok.empty() && (tok.front() == ' ' || tok.front() == '\t'))
      tok.erase(tok.begin());
    while (!tok.empty() && (tok.back() == ' ' || tok.back() == '\t'))
      tok.pop_back();
    if (tok == "all" || tok == "1") mask |= kAllCategories;
    else if (tok == "sched") mask |= bit(Category::kSched);
    else if (tok == "stream") mask |= bit(Category::kStream);
    else if (tok == "cache") mask |= bit(Category::kCache);
    pos = comma + 1;
  }
  return mask;
}

bool init_from_env() {
  const char* env = std::getenv("TWIDDC_TRACE");
  if (env == nullptr || *env == '\0') return false;
  set_enabled(parse_categories(env));
  return true;
}

void set_ring_capacity(std::size_t events) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.ring_capacity = round_up_pow2(events);
}

void set_thread_name(const std::string& name) {
  if (enabled_mask() == 0) {
    // Tracing off: remember the name without paying for a ring.  If this
    // thread later emits (tracing enabled meanwhile), ring creation
    // registers it.
    tls_pending_name = name;
    return;
  }
  const std::uint32_t tid = ring_for_this_thread().tid();
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.thread_names[tid] = name;
}

std::uint16_t intern(const std::string& name) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = reg.ids.find(name);
  if (it != reg.ids.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(reg.names.size());
  reg.names.push_back(name);
  reg.ids.emplace(name, id);
  return id;
}

void emit(Category c, std::uint16_t name, Phase phase, std::uint64_t arg0,
          std::uint64_t arg1) {
  ring_for_this_thread().push(c, name, phase, arg0, arg1, steady_now_ns());
}

std::uint64_t Span::now_ns() { return steady_now_ns(); }

void Span::finish() {
  if (start_ns_ == 0) return;
  const std::uint64_t dur = now_ns() - start_ns_;
  if (enabled(category_))
    ring_for_this_thread().push(category_, name_, Phase::kComplete, arg0_, dur,
                                start_ns_);
  start_ns_ = 0;
}

Snapshot snapshot() {
  Snapshot snap;
  Registry& reg = registry();
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    rings = reg.rings;
    snap.names = reg.names;
    for (const auto& [tid, name] : reg.thread_names)
      snap.threads.emplace_back(tid, name);
  }
  for (const auto& ring : rings) snap.dropped += ring->collect(snap.events);
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  std::sort(snap.threads.begin(), snap.threads.end());
  return snap;
}

void reset() {
  Registry& reg = registry();
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(reg.mu);
    // A ring only the registry still owns belongs to an exited thread: its
    // events are about to be discarded anyway, so drop the ring and the
    // thread's name with it.  A snapshot holding a copy keeps it one more
    // reset.
    std::erase_if(reg.rings, [&reg](const std::shared_ptr<Ring>& ring) {
      if (ring.use_count() != 1) return false;
      reg.thread_names.erase(ring->tid());
      return true;
    });
    rings = reg.rings;
  }
  for (const auto& ring : rings) ring->discard_up_to_now();
}

std::string to_chrome_json(const Snapshot& snap) {
  // ts/dur are microseconds (double) relative to the first event, which
  // keeps the numbers readable and well inside double precision.
  const std::uint64_t t0 = snap.events.empty() ? 0 : snap.events.front().ts_ns;
  const auto us = [t0](std::uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(ns - t0) / 1000.0);
    return std::string(buf);
  };
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  const auto append = [&](const JsonLine& line) {
    if (!first) out += ",\n";
    first = false;
    out += line.str();
  };
  for (const auto& [tid, name] : snap.threads) {
    JsonLine meta;
    meta.field("ph", "M").field("name", "thread_name").field("pid", std::size_t{1})
        .field("tid", static_cast<std::size_t>(tid));
    JsonLine args;
    args.field("name", name);
    meta.object("args", args);
    append(meta);
  }
  for (const auto& e : snap.events) {
    JsonLine line;
    const std::string name =
        e.name < snap.names.size() ? snap.names[e.name] : "?";
    switch (e.phase) {
      case Phase::kInstant: line.field("ph", "i").field("s", "t"); break;
      case Phase::kComplete: line.field("ph", "X"); break;
    }
    line.field("name", name).field("cat", category_name(e.category))
        .raw_field("ts", us(e.ts_ns))
        .field("pid", std::size_t{1})
        .field("tid", static_cast<std::size_t>(e.tid));
    if (e.phase == Phase::kComplete) line.raw_field("dur", us(t0 + e.arg1));
    JsonLine args;
    args.field("arg0", static_cast<std::size_t>(e.arg0))
        .field("arg1", static_cast<std::size_t>(e.arg1));
    line.object("args", args);
    append(line);
  }
  out += "],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": ";
  JsonLine other;
  other.field("dropped", static_cast<std::size_t>(snap.dropped))
      .field("tool", "twiddc");
  out += other.str();
  out += "}\n";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  const std::string json = to_chrome_json(snapshot());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace twiddc::trace
