// perfbench -- the measurement harness of the repo benchmark.
//
// Everything here times the library from the outside: the benchmark owns
// the feed Source, a timing decorator registered in front of the backends,
// and the client loop, and records its spans at those three places only.
// The library's own trace rings (TWIDDC_TRACE) stay off in every run.
//
// The pieces with arithmetic worth pinning -- the percentile rule, the
// source's stamps, the record log, the output checker and the decorator --
// live here so the self-tests in tests/harness_test.cpp can exercise them
// without a run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/backend.hpp"
#include "src/core/pipeline.hpp"
#include "src/stream/session.hpp"
#include "src/stream/source.hpp"

namespace perfbench {

namespace core = twiddc::core;
namespace stream = twiddc::stream;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (all threads) in seconds.
double process_cpu_seconds();
/// Peak resident set size of this process in MB.
double peak_rss_mb();

// ----------------------------------------------------------------- statistics

/// A tail percentile as reported: the value, the percentile actually used and
/// the sample count it was taken from.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

/// Samples that must lie strictly beyond a reported percentile's rank.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile (q in (0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// The highest percentile not above `wanted` that still has at least
/// kMinBeyond samples beyond its rank, falling back through 99, 98, 95, 90,
/// 75 to the median (always reported, whatever the count).
Tail tail_percentile(const std::vector<double>& values, double wanted);

// ---------------------------------------------------------------------- feed

/// The wideband feed: a seeded multi-tone-plus-noise antenna signal
/// quantised to `bits`, stored once and replayed cyclically.  Sample k of
/// the stream is samples[k mod size()]; the reference computations read the
/// same function, so nothing but the generated samples reaches the program.
class Feed {
 public:
  Feed(std::uint64_t seed, int bits, double sample_rate_hz, std::size_t length);

  /// Copies stream samples [first, first + out.size()) into `out`.
  void fill(std::uint64_t first, std::span<std::int64_t> out) const;

 private:
  std::vector<std::int64_t> samples_;
};

// ---------------------------------------------------------------------- logs

/// Opens an anonymous in-memory file (memfd) for a RecordLog.
std::FILE* open_memory_file(const char* name);

/// An append-only log of fixed-size records kept in an anonymous in-memory
/// file.  Its pages are never mapped into this process, so what the harness
/// logs while the program serves stays out of the resident set reported as
/// peak_rss_mb.  One writer at a time.
template <typename T>
class RecordLog {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit RecordLog(const char* name) : file_(open_memory_file(name)) {}
  ~RecordLog() { std::fclose(file_); }
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  void append(const T& record) { std::fwrite(&record, sizeof record, 1, file_); }

  /// Every record appended so far, in order.  Call once the writer is done.
  [[nodiscard]] std::vector<T> load() {
    std::fflush(file_);
    const long bytes = std::ftell(file_);
    std::vector<T> records(static_cast<std::size_t>(bytes) / sizeof(T));
    std::rewind(file_);
    const std::size_t got = std::fread(records.data(), sizeof(T), records.size(), file_);
    if (got != records.size() || std::ferror(file_) != 0)
      throw std::runtime_error("record log: records were lost");
    return records;
  }

 private:
  std::FILE* file_;
};

// -------------------------------------------------------------------- source

/// When the pump asked for a feed block and when the read returned.  Every
/// workload is a closed loop: a block is due when the pump asks for it.
struct BlockStamp {
  std::int64_t call_ns = 0;
  std::int64_t return_ns = 0;
};

/// The benchmark's stream::Source: replays the Feed block by block and logs
/// every block's call and return times.  The feed ends after `max_blocks`
/// blocks, or at the first read after stop().
class ReplaySource final : public stream::Source {
 public:
  explicit ReplaySource(std::shared_ptr<const Feed> feed,
                        std::uint64_t max_blocks = std::numeric_limits<std::uint64_t>::max());

  std::size_t read(std::span<std::int64_t> out) override;

  /// Ends the feed: the next read() reports end of stream.
  void stop() { stop_.store(true, std::memory_order_release); }

  /// Blocks handed out so far.
  [[nodiscard]] std::uint64_t blocks() const {
    return blocks_.load(std::memory_order_acquire);
  }
  /// The stamps of every block handed out, by seq.  Call once the engine has
  /// stopped.
  [[nodiscard]] std::vector<BlockStamp> stamps() { return log_.load(); }

 private:
  std::shared_ptr<const Feed> feed_;
  std::uint64_t max_blocks_;
  std::uint64_t position_ = 0;  // stream position of the next block
  RecordLog<BlockStamp> log_{"perfbench-blocks"};
  std::atomic<std::uint64_t> blocks_{0};
  std::atomic<bool> stop_{false};
};

// ---------------------------------------------------------------- spans

/// One process_block call seen by the timing decorator.  The k-th call of a
/// session is its feed block k (kBlock sessions opened before start()).
struct CallSpan {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-session call log, written only by the worker running the session.
struct CallLog {
  std::vector<CallSpan> calls;
};

/// Owner of the decorator call logs.  The registry's factories are process
/// wide, so the recorder outlives every engine that opens timed sessions.
class SpanRecorder {
 public:
  /// Registers "timed:<name>" for every registered backend name; each
  /// create() wraps a fresh inner instance and gives it the next CallLog.
  void register_timed_backends();
  static std::string timed_name(const std::string& backend) {
    return "timed:" + backend;
  }
  /// Logs handed out so far, in creation (= open) order.
  [[nodiscard]] std::size_t logs_created() const { return logs_.size(); }
  [[nodiscard]] const CallLog& log(std::size_t i) const { return logs_.at(i); }
  CallLog* next_log();

 private:
  std::deque<CallLog> logs_;  // stable addresses
};

/// Timing decorator: forwards every call to the wrapped backend and stamps
/// process_block.  Bit-exact with the wrapped backend by construction (it
/// never touches the samples); tests/harness_test.cpp pins that.
class TimedBackend final : public core::ArchitectureBackend {
 public:
  TimedBackend(std::unique_ptr<core::ArchitectureBackend> inner, CallLog* log);

  [[nodiscard]] const std::string& name() const override { return inner_->name(); }
  [[nodiscard]] core::BackendCapabilities capabilities() const override {
    return inner_->capabilities();
  }
  [[nodiscard]] core::DatapathSpec datapath() const override {
    return inner_->datapath();
  }
  [[nodiscard]] core::ChainPlan plan_for(const core::DdcConfig& config) const override {
    return inner_->plan_for(config);
  }
  void configure(const core::ChainPlan& plan) override { inner_->configure(plan); }
  [[nodiscard]] bool is_configured() const override { return inner_->is_configured(); }
  [[nodiscard]] const core::ChainPlan& plan() const override { return inner_->plan(); }
  void process_block(std::span<const std::int64_t> in,
                     std::vector<core::IqSample>& out) override;
  void reset() override { inner_->reset(); }
  [[nodiscard]] double output_scale() const override { return inner_->output_scale(); }
  void swap_plan(const core::ChainPlan& plan, core::SwapMode mode) override {
    inner_->swap_plan(plan, mode);
  }
  [[nodiscard]] core::BackendPowerProfile power_profile() const override {
    return inner_->power_profile();
  }

 private:
  std::unique_ptr<core::ArchitectureBackend> inner_;
  CallLog* log_;
};

// ------------------------------------------------------------ correctness

/// FNV-1a over a chunk's (i, q) pairs.
std::uint64_t digest(std::span<const core::IqSample> iq);

/// What the client keeps of one polled chunk: its block, a digest of its
/// samples, its metadata, and when the poll that returned it ran.
struct ChunkRecord {
  std::uint64_t seq = 0;
  std::uint64_t digest = 0;
  std::int64_t poll_start_ns = 0;
  std::int64_t poll_end_ns = 0;
  std::uint32_t session = 0;
  std::uint32_t outputs = 0;
  stream::GapCause gap = stream::GapCause::kNone;
  bool dropped = false;

  static ChunkRecord of(std::uint32_t session, const stream::StreamChunk& chunk);
};

/// Output cadence of a plan from a fresh (or kFlush-reset) state: the first
/// output appears after input `first` (0-based) and then every `period`
/// inputs.  Derived by pushing samples through a fresh DdcPipeline.
struct Cadence {
  std::uint64_t first = 0;
  std::uint64_t period = 1;

  static Cadence of(const core::ChainPlan& plan);
  /// Outputs a fresh chain has produced after `n` inputs.
  [[nodiscard]] std::uint64_t outputs_after(std::uint64_t n) const {
    return n > first ? (n - 1 - first) / period + 1 : 0;
  }
};

/// Collects one session's chunk records and judges them against a
/// reference.  A chunk fails when it is missing, out of order or
/// duplicated, gap-marked without cause, carries a drop count, or differs
/// from the reference.
class SessionCheck {
 public:
  void on_chunk(const ChunkRecord& chunk);

  /// Bit-exact judgement: `reference[k]` is the digest of the reference's
  /// outputs for feed block k, and every expected block must match it.
  [[nodiscard]] std::uint64_t failed_against(
      const std::vector<std::uint64_t>& reference) const;

  /// Judgement for a retuned session, whose samples depend on when each
  /// retune landed: every block must be present with exactly the output
  /// count the cadence predicts, and the only gaps are kRetuneFlush markers,
  /// exactly on the blocks in `flush_seqs` (the blocks processed first after
  /// each kFlush retune; several flushes between two blocks leave one
  /// marker).  The cadence restarts at each marked block.
  [[nodiscard]] std::uint64_t failed_retuned(
      std::uint64_t expected_blocks, std::size_t block_samples, const Cadence& cadence,
      const std::vector<std::uint64_t>& flush_seqs) const;

 private:
  struct Entry {
    std::uint64_t digest = 0;
    std::uint32_t outputs = 0;
    stream::GapCause gap = stream::GapCause::kNone;
    bool present = false;
    bool dropped = false;
  };
  std::vector<Entry> entries_;   // by block seq
  std::uint64_t misordered_ = 0; // chunks whose seq was not the next expected
};

/// Per-block output digests of `backend` (or, for "native-pipeline", the
/// staged core::DdcPipeline) run inline over feed blocks [0, blocks).
std::vector<std::uint64_t> reference_digests(const std::string& backend,
                                             const core::ChainPlan& plan,
                                             const Feed& feed,
                                             std::size_t block_samples,
                                             std::uint64_t blocks);

}  // namespace perfbench
