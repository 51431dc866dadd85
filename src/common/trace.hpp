// twiddc::trace -- process-wide, lock-free structured tracing.
//
// Every thread that emits events owns a bounded ring of fixed-size POD
// slots; writers never take a lock and never block.  A site costs one
// relaxed atomic load when its category is disabled (the runtime kill
// switch), and compiles out entirely when masked by
// TWIDDC_TRACE_COMPILED_MASK.  When a ring wraps, the oldest events are
// overwritten and counted as drops -- tracing sheds history, never
// throughput.
//
// Readers (snapshot/export) merge all rings into one timeline sorted by
// monotonic timestamp.  Exporters produce Chrome trace format (load the
// file in chrome://tracing or https://ui.perfetto.dev) with instant,
// duration ("complete") and counter events, newline-delimited JSON, and a
// compact binary dump that tools/trace_dump converts offline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

// Compile-time category enable mask.  Bits correspond to trace::Category;
// a cleared bit removes the whole emit path at compile time (the CMake
// option TWIDDC_TRACE_COMPILED=OFF sets this to 0 for the overhead-gate
// comparison build).  Default: everything compiled in, runtime-gated.
#ifndef TWIDDC_TRACE_COMPILED_MASK
#define TWIDDC_TRACE_COMPILED_MASK 0xffffffffu
#endif

namespace twiddc::trace {

/// Event categories; one bit each in the enable masks.
enum class Category : std::uint8_t {
  kSched = 0,   ///< TaskScheduler: wakeup
  kStream = 1,  ///< StreamEngine/Session: pump, service, retune, gap, fault
  kCache = 2,   ///< CompiledPlanCache: compile, hit/miss, eviction
};
inline constexpr std::uint32_t bit(Category c) {
  return 1u << static_cast<unsigned>(c);
}
inline constexpr std::uint32_t kAllCategories =
    bit(Category::kSched) | bit(Category::kStream) | bit(Category::kCache);

/// How an event renders in Chrome trace format.
enum class Phase : std::uint8_t {
  kInstant = 0,   ///< "i": a point in time
  kComplete = 1,  ///< "X": a span; ts = start, arg1 = duration in ns
  kCounter = 2,   ///< "C": a sampled value; arg0 = value
};

/// One exported event.  The in-ring representation is atomic; this is the
/// plain POD form snapshots and dumps carry.
struct TraceEvent {
  std::uint64_t ts_ns = 0;  ///< steady_clock nanoseconds (monotonic)
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;  ///< duration_ns for kComplete events
  std::uint32_t tid = 0;   ///< process-local trace thread id (1-based)
  std::uint16_t name = 0;  ///< interned name id (see intern())
  Category category = Category::kSched;
  Phase phase = Phase::kInstant;
};
static_assert(sizeof(TraceEvent) == 32, "TraceEvent must stay compact");

// ---------------------------------------------------------------------------
// Runtime control

/// Sets the runtime category mask; 0 (the default) disables all tracing.
void set_enabled(std::uint32_t category_mask);
[[nodiscard]] std::uint32_t enabled_mask();

/// True iff events of category `c` are currently recorded.  The fast path
/// for disabled tracing: a compile-time test plus one relaxed load.
[[nodiscard]] bool enabled(Category c);

/// Parses a TWIDDC_TRACE-style spec: comma-separated category names
/// ("sched,stream,cache"), or "all"/"1" for everything.  Unknown
/// names are ignored; an empty spec yields 0.
[[nodiscard]] std::uint32_t parse_categories(const std::string& spec);

/// Applies $TWIDDC_TRACE to the runtime mask.  Called once automatically
/// at load time, so any twiddc binary honours the variable; returns true
/// if the variable was set and non-empty.
bool init_from_env();

/// Capacity (events, rounded up to a power of two, min 16) for rings
/// created after the call.  Existing rings keep their size.  Default 64k
/// events (2 MiB) per thread.
void set_ring_capacity(std::size_t events);

/// Names the calling thread in exported traces ("pump", "worker3", ...).
void set_thread_name(const std::string& name);

// ---------------------------------------------------------------------------
// Emission

/// Interns `name`, returning a stable id for this process.  Sites cache
/// the id in a function-local static so the table lock is paid once.
[[nodiscard]] std::uint16_t intern(const std::string& name);

/// Records an event on the calling thread's ring (created on first use).
/// Callers must check enabled(c) first; emit() itself does not gate.
void emit(Category c, std::uint16_t name, Phase phase, std::uint64_t arg0,
          std::uint64_t arg1);

inline void instant(Category c, std::uint16_t name, std::uint64_t arg0 = 0,
                    std::uint64_t arg1 = 0) {
  if (enabled(c)) emit(c, name, Phase::kInstant, arg0, arg1);
}
inline void counter(Category c, std::uint16_t name, std::uint64_t value) {
  if (enabled(c)) emit(c, name, Phase::kCounter, value, 0);
}

/// RAII duration span: one kComplete event at destruction carrying the
/// start timestamp and elapsed ns (arg1).  A span on a disabled category
/// costs the enabled() check twice and records nothing.
class Span {
 public:
  Span(Category c, std::uint16_t name, std::uint64_t arg0 = 0)
      : category_(c), name_(name), arg0_(arg0), start_ns_(enabled(c) ? now_ns() : 0) {}
  ~Span() { finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Replaces the user argument (e.g. blocks processed, known only at end).
  void set_arg(std::uint64_t arg0) { arg0_ = arg0; }

  /// Emits the event now instead of at scope exit.
  void finish();

  static std::uint64_t now_ns();

 private:
  Category category_;
  std::uint16_t name_;
  std::uint64_t arg0_;
  std::uint64_t start_ns_;  // 0 = disabled at construction or already finished
};

// ---------------------------------------------------------------------------
// Collection and export

/// A merged, timestamp-sorted view of every ring plus the metadata needed
/// to render it.
struct Snapshot {
  std::vector<TraceEvent> events;            // sorted by ts_ns
  std::uint64_t dropped = 0;                 // overwritten by ring wrap
  std::vector<std::string> names;            // name id -> string
  std::vector<std::pair<std::uint32_t, std::string>> threads;  // tid -> name
};

/// Collects all rings.  Safe to call while writers are emitting: slots
/// possibly being overwritten during the read are discarded (and counted
/// dropped), so returned events are always internally consistent.
[[nodiscard]] Snapshot snapshot();

/// Marks every ring's current contents as consumed: later snapshots only
/// see events emitted after the call.  Drop counters restart too, and
/// threads that have exited are forgotten (their rings and names freed).
void reset();

/// Chrome trace format: {"traceEvents": [...]} with thread-name metadata,
/// "i"/"X"/"C" events and ts/dur in microseconds.
[[nodiscard]] std::string to_chrome_json(const Snapshot& snap);

/// Newline-delimited JSON: one flat object per event.
[[nodiscard]] std::string to_ndjson(const Snapshot& snap);

/// Writes to_chrome_json(snapshot()) to `path`; false on I/O error.
bool write_chrome_trace(const std::string& path);

/// Compact binary form of a snapshot ("TWTRC1" magic), the capture format
/// tools/trace_dump converts to .trace.json offline.
bool write_binary_dump(const std::string& path);
[[nodiscard]] bool read_binary_dump(const std::string& path, Snapshot& out);

}  // namespace twiddc::trace
