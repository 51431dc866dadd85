// The lock-free tracing layer: ring wrap + drop accounting, multi-thread
// merge order, the category mask and runtime kill switch, and well-formed
// Chrome-trace output and its file export.  Tests share process-wide
// trace state, so every test starts from reset() + a known mask and
// restores the disabled default on exit.
#include "src/common/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

namespace twiddc::trace {
namespace {

/// Per-test guard: start clean, leave tracing off for the next test.
class TraceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(0);
    reset();
  }
  void TearDown() override {
    set_enabled(0);
    reset();
    set_ring_capacity(64 * 1024);  // restore the default for later tests
  }
};

TEST_F(TraceFixture, DisabledByDefaultRecordsNothing) {
  ASSERT_EQ(enabled_mask() & kAllCategories, 0u);
  const std::uint16_t name = intern("noop");
  instant(Category::kSched, name, 1, 2);
  { Span span(Category::kCache, name); }
  const Snapshot snap = snapshot();
  EXPECT_TRUE(snap.events.empty());
  EXPECT_EQ(snap.dropped, 0u);
}

TEST_F(TraceFixture, CategoryMaskGatesPerCategory) {
  set_enabled(bit(Category::kSched));
  EXPECT_TRUE(enabled(Category::kSched));
  EXPECT_FALSE(enabled(Category::kStream));
  const std::uint16_t name = intern("masked");
  instant(Category::kSched, name, 1, 0);
  instant(Category::kStream, name, 2, 0);  // masked off: dropped at the site
  const Snapshot snap = snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(snap.events[0].category, Category::kSched);
  EXPECT_EQ(snap.events[0].arg0, 1u);
}

TEST_F(TraceFixture, KillSwitchStopsRecordingImmediately) {
  set_enabled(kAllCategories);
  const std::uint16_t name = intern("kill");
  instant(Category::kSched, name, 1, 0);
  set_enabled(0);
  instant(Category::kSched, name, 2, 0);
  const Snapshot snap = snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(snap.events[0].arg0, 1u);
}

TEST_F(TraceFixture, InternIsStableAndNamesExport) {
  const std::uint16_t a = intern("alpha");
  const std::uint16_t b = intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(intern("alpha"), a);  // same string, same id, forever
  set_enabled(kAllCategories);
  instant(Category::kSched, a, 0, 0);
  const Snapshot snap = snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  ASSERT_LT(snap.events[0].name, snap.names.size());
  EXPECT_EQ(snap.names[snap.events[0].name], "alpha");
}

TEST_F(TraceFixture, RingWrapDropsOldestAndCountsThem) {
  // Ring capacity applies to rings created after the call, so emit from a
  // fresh thread -- this test's ring, sized 64 for certain.
  set_ring_capacity(64);  // rounded to a power of two >= 16
  set_enabled(kAllCategories);
  const std::uint16_t name = intern("wrap");
  constexpr std::uint64_t kEmitted = 1000;
  std::thread([name] {
    for (std::uint64_t i = 0; i < kEmitted; ++i)
      instant(Category::kSched, name, i, 0);
  }).join();
  const Snapshot snap = snapshot();
  ASSERT_FALSE(snap.events.empty());
  EXPECT_LE(snap.events.size(), 64u);
  EXPECT_EQ(snap.events.size() + snap.dropped, kEmitted);
  // Survivors are the newest events, in order.
  for (std::size_t i = 1; i < snap.events.size(); ++i)
    EXPECT_EQ(snap.events[i].arg0, snap.events[i - 1].arg0 + 1);
  EXPECT_EQ(snap.events.back().arg0, kEmitted - 1);
}

TEST_F(TraceFixture, MultiThreadMergeIsTimestampSortedAndComplete) {
  set_enabled(kAllCategories);
  const std::uint16_t name = intern("mt");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, name] {
      set_thread_name("emitter" + std::to_string(t));
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        instant(Category::kStream, name, static_cast<std::uint64_t>(t), i);
    });
  }
  for (auto& th : threads) th.join();
  const Snapshot snap = snapshot();
  ASSERT_EQ(snap.events.size(), kThreads * kPerThread);
  EXPECT_EQ(snap.dropped, 0u);
  // Global order: non-decreasing timestamps across all threads.
  for (std::size_t i = 1; i < snap.events.size(); ++i)
    EXPECT_GE(snap.events[i].ts_ns, snap.events[i - 1].ts_ns);
  // Per-thread order survives the merge, and every event arrived.
  std::vector<std::uint64_t> next(kThreads, 0);
  for (const TraceEvent& e : snap.events) {
    ASSERT_LT(e.arg0, static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(e.arg1, next[e.arg0]++);
  }
  // Thread names registered (rings outlive their threads).
  std::size_t named = 0;
  for (const auto& [tid, tname] : snap.threads)
    if (tname.rfind("emitter", 0) == 0) ++named;
  EXPECT_EQ(named, static_cast<std::size_t>(kThreads));
}

TEST_F(TraceFixture, NameSetWhileDisabledIsRegisteredOnFirstEmit) {
  // Workers name themselves at spawn, usually with tracing off: the name is
  // held without creating a ring, and the ring created by the thread's
  // first emit (after tracing was switched on) must carry it.
  ASSERT_EQ(enabled_mask(), 0u);
  const std::uint16_t name = intern("late_ring");
  std::thread([name] {
    set_thread_name("named-while-off");
    set_enabled(kAllCategories);
    instant(Category::kStream, name, 5, 0);
  }).join();
  const Snapshot snap = snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  const std::uint32_t tid = snap.events[0].tid;
  const auto it = std::find_if(snap.threads.begin(), snap.threads.end(),
                               [tid](const auto& t) { return t.first == tid; });
  ASSERT_NE(it, snap.threads.end());
  EXPECT_EQ(it->second, "named-while-off");
}

TEST_F(TraceFixture, ResetForgetsExitedThreadsButKeepsLiveOnes) {
  // Once a thread exits, only the registry owns its ring; reset() frees
  // that ring together with the thread's name, so a process that keeps
  // spawning threads does not keep their names (or 2 MiB rings) forever.
  set_enabled(kAllCategories);
  const std::uint16_t name = intern("forget");
  std::thread([name] {
    set_thread_name("exited");
    instant(Category::kStream, name, 1, 0);
  }).join();

  std::atomic<bool> emitted{false};
  std::atomic<bool> release{false};
  std::thread live([&emitted, &release, name] {
    set_thread_name("live");
    instant(Category::kStream, name, 2, 0);
    emitted.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!emitted.load()) std::this_thread::yield();

  const auto named = [](const Snapshot& snap, const std::string& tname) {
    return std::any_of(snap.threads.begin(), snap.threads.end(),
                       [&tname](const auto& t) { return t.second == tname; });
  };
  const Snapshot before = snapshot();
  EXPECT_TRUE(named(before, "exited"));
  EXPECT_TRUE(named(before, "live"));
  reset();
  const Snapshot after = snapshot();
  EXPECT_FALSE(named(after, "exited"));
  EXPECT_TRUE(named(after, "live"));
  release.store(true);
  live.join();
}

TEST_F(TraceFixture, SpanRecordsDurationAndStartTime) {
  set_enabled(kAllCategories);
  const std::uint16_t name = intern("span");
  const std::uint64_t before = Span::now_ns();
  {
    Span span(Category::kCache, name, 7);
    // Some measurable work.
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  }
  const std::uint64_t after = Span::now_ns();
  const Snapshot snap = snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  const TraceEvent& e = snap.events[0];
  EXPECT_EQ(e.phase, Phase::kComplete);
  EXPECT_EQ(e.arg0, 7u);
  EXPECT_GE(e.ts_ns, before);
  EXPECT_LE(e.ts_ns + e.arg1, after);  // start + duration inside the bracket
}

TEST_F(TraceFixture, ResetDiscardsHistoryAndDropCounters) {
  set_ring_capacity(32);  // fresh-thread emitter: see RingWrap test
  set_enabled(kAllCategories);
  const std::uint16_t name = intern("reset");
  std::thread([name] {
    for (int i = 0; i < 100; ++i) instant(Category::kSched, name, 0, 0);
  }).join();
  ASSERT_GT(snapshot().dropped, 0u);
  reset();
  const Snapshot cleared = snapshot();
  EXPECT_TRUE(cleared.events.empty());
  EXPECT_EQ(cleared.dropped, 0u);
  instant(Category::kSched, name, 42, 0);
  const Snapshot fresh = snapshot();
  ASSERT_EQ(fresh.events.size(), 1u);
  EXPECT_EQ(fresh.events[0].arg0, 42u);
}

TEST_F(TraceFixture, ParseCategoriesSpecs) {
  EXPECT_EQ(parse_categories(""), 0u);
  EXPECT_EQ(parse_categories("all"), kAllCategories);
  EXPECT_EQ(parse_categories("1"), kAllCategories);
  EXPECT_EQ(parse_categories("sched"), bit(Category::kSched));
  EXPECT_EQ(parse_categories("sched,stream"),
            bit(Category::kSched) | bit(Category::kStream));
  EXPECT_EQ(parse_categories("cache, sched"),
            bit(Category::kCache) | bit(Category::kSched));
  EXPECT_EQ(parse_categories("bogus"), 0u);  // unknown names ignored
  EXPECT_EQ(parse_categories("bogus,stream"), bit(Category::kStream));
}

/// Brace/bracket balance outside strings -- a cheap well-formedness check
/// that catches every splicing bug the exporters could make.
void expect_balanced_json(const std::string& s) {
  int depth_obj = 0;
  int depth_arr = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (in_string) {
      if (escaped)
        escaped = false;
      else if (c == '\\')
        escaped = true;
      else if (c == '"')
        in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth_obj; break;
      case '}': --depth_obj; break;
      case '[': ++depth_arr; break;
      case ']': --depth_arr; break;
      default: break;
    }
    ASSERT_GE(depth_obj, 0);
    ASSERT_GE(depth_arr, 0);
  }
  EXPECT_EQ(depth_obj, 0);
  EXPECT_EQ(depth_arr, 0);
  EXPECT_FALSE(in_string);
}

TEST_F(TraceFixture, ChromeExportIsWellFormedAndCarriesEvents) {
  set_enabled(kAllCategories);
  set_thread_name("chrome-test");
  const std::uint16_t iname = intern("chrome_instant");
  const std::uint16_t sname = intern("chrome_span");
  instant(Category::kStream, iname, 1, 2);
  { Span span(Category::kSched, sname, 3); }
  const std::string json = to_chrome_json(snapshot());
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("chrome_instant"), std::string::npos);
  EXPECT_NE(json.find("chrome_span"), std::string::npos);
  EXPECT_NE(json.find("chrome-test"), std::string::npos);  // thread metadata
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

/// Whole contents of `path`; empty if it cannot be opened.
std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

TEST_F(TraceFixture, WriteChromeTraceWritesTheSnapshot) {
  set_enabled(kAllCategories);
  const std::uint16_t iname = intern("file_instant");
  const std::uint16_t sname = intern("file_span");
  instant(Category::kStream, iname, 4, 5);
  { Span span(Category::kCache, sname, 6); }
  const std::string path = ::testing::TempDir() + "trace_write_test.trace.json";
  ASSERT_TRUE(write_chrome_trace(path));
  // Nothing emits in between, so the file holds exactly this rendering.
  const std::string expected = to_chrome_json(snapshot());
  const std::string written = read_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(written, expected);
  EXPECT_NE(written.find("file_instant"), std::string::npos);
  EXPECT_NE(written.find("file_span"), std::string::npos);

  EXPECT_FALSE(write_chrome_trace(::testing::TempDir() +
                                  "no_such_dir_for_trace/out.trace.json"));
}

TEST_F(TraceFixture, ConcurrentEmitAndSnapshotStayConsistent) {
  set_ring_capacity(256);  // force wraps while the reader runs
  set_enabled(kAllCategories);
  const std::uint16_t name = intern("race");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed))
      instant(Category::kSched, name, i++, 0);
  });
  for (int pass = 0; pass < 50; ++pass) {
    const Snapshot snap = snapshot();
    // Internal consistency under concurrent overwrite: sorted, and every
    // kept event is a real record (arg0 strictly increases per thread).
    std::uint64_t prev = 0;
    bool first = true;
    for (const TraceEvent& e : snap.events) {
      if (!first) {
        EXPECT_GT(e.arg0, prev);
      }
      prev = e.arg0;
      first = false;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

}  // namespace
}  // namespace twiddc::trace
