#include "harness.hpp"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <stdexcept>

#include "src/backends/builtin.hpp"
#include "src/common/rng.hpp"

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ----------------------------------------------------------------- statistics

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

Tail tail_percentile(const std::vector<double>& values, double wanted) {
  const std::size_t n = values.size();
  for (const double q : {99.9, 99.0, 98.0, 95.0, 90.0, 75.0}) {
    if (q > wanted) continue;
    const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
    if (n >= rank + kMinBeyond) return Tail{percentile(values, q), q, n};
  }
  return Tail{percentile(values, 50.0), 50.0, n};
}

// ---------------------------------------------------------------------- feed

Feed::Feed(std::uint64_t seed, int bits, double sample_rate_hz, std::size_t length) {
  twiddc::Rng rng(seed);
  struct Tone {
    double step;
    double amplitude;
    double phase;
  };
  // Four carriers anywhere in the first Nyquist zone plus white noise, with
  // headroom so the sum never clips: a busy antenna, not a test tone.
  std::vector<Tone> tones;
  for (int k = 0; k < 4; ++k) {
    const double freq = rng.uniform(0.5e6, 0.45 * sample_rate_hz);
    tones.push_back(Tone{2.0 * M_PI * freq / sample_rate_hz, rng.uniform(0.05, 0.15),
                         rng.uniform(0.0, 2.0 * M_PI)});
  }
  const double full_scale = std::ldexp(1.0, bits - 1) - 1.0;
  samples_.resize(length);
  for (std::size_t i = 0; i < length; ++i) {
    double x = rng.uniform(-0.05, 0.05);
    for (const auto& t : tones)
      x += t.amplitude * std::sin(t.phase + t.step * static_cast<double>(i));
    samples_[i] = static_cast<std::int64_t>(std::lround(x * full_scale));
  }
}

void Feed::fill(std::uint64_t first, std::span<std::int64_t> out) const {
  std::size_t pos = static_cast<std::size_t>(first % samples_.size());
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t n = std::min(out.size() - done, samples_.size() - pos);
    std::copy_n(samples_.begin() + static_cast<std::ptrdiff_t>(pos), n,
                out.begin() + static_cast<std::ptrdiff_t>(done));
    done += n;
    pos = 0;
  }
}

// ---------------------------------------------------------------------- logs

std::FILE* open_memory_file(const char* name) {
  const int fd = memfd_create(name, MFD_CLOEXEC);
  std::FILE* file = fd >= 0 ? fdopen(fd, "w+b") : nullptr;
  if (file == nullptr) {
    if (fd >= 0) close(fd);
    throw std::runtime_error(std::string("cannot open the in-memory log ") + name);
  }
  return file;
}

// -------------------------------------------------------------------- source

ReplaySource::ReplaySource(std::shared_ptr<const Feed> feed, std::uint64_t max_blocks)
    : feed_(std::move(feed)), max_blocks_(max_blocks) {}

std::size_t ReplaySource::read(std::span<std::int64_t> out) {
  const std::int64_t call = now_ns();
  const std::uint64_t seq = blocks_.load(std::memory_order_relaxed);
  if (stop_.load(std::memory_order_acquire) || seq >= max_blocks_) return 0;
  feed_->fill(position_, out);
  position_ += out.size();
  log_.append(BlockStamp{call, now_ns()});
  blocks_.store(seq + 1, std::memory_order_release);
  return out.size();
}

// ---------------------------------------------------------------- spans

CallLog* SpanRecorder::next_log() {
  auto& log = logs_.emplace_back();
  log.calls.reserve(1 << 16);
  return &log;
}

void SpanRecorder::register_timed_backends() {
  for (const auto& name : core::BackendRegistry::instance().names()) {
    if (name.rfind("timed:", 0) == 0) continue;
    twiddc::backends::register_decorated(
        timed_name(name), name, [this](std::unique_ptr<core::ArchitectureBackend> inner) {
          return std::make_unique<TimedBackend>(std::move(inner), next_log());
        });
  }
}

TimedBackend::TimedBackend(std::unique_ptr<core::ArchitectureBackend> inner, CallLog* log)
    : inner_(std::move(inner)), log_(log) {}

void TimedBackend::process_block(std::span<const std::int64_t> in,
                                 std::vector<core::IqSample>& out) {
  const std::int64_t start = now_ns();
  inner_->process_block(in, out);
  if (log_) log_->calls.push_back(CallSpan{start, now_ns()});
}

// ------------------------------------------------------------ correctness

std::uint64_t digest(std::span<const core::IqSample> iq) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::int64_t v) {
    auto u = static_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& s : iq) {
    mix(s.i);
    mix(s.q);
  }
  return h;
}

Cadence Cadence::of(const core::ChainPlan& plan) {
  core::DdcPipeline pipe(plan);
  const auto d = static_cast<std::uint64_t>(plan.total_decimation());
  std::vector<std::uint64_t> at;
  for (std::uint64_t i = 0; i < 4 * d + 1; ++i)
    if (pipe.push(0)) at.push_back(i);
  if (at.size() < 3) throw std::runtime_error("cadence: fewer than 3 outputs");
  Cadence c{at[0], at[1] - at[0]};
  for (std::size_t k = 1; k < at.size(); ++k)
    if (at[k] - at[k - 1] != c.period)
      throw std::runtime_error("cadence: output spacing is not periodic");
  return c;
}

ChunkRecord ChunkRecord::of(std::uint32_t session, const stream::StreamChunk& chunk) {
  ChunkRecord r;
  r.seq = chunk.block_seq;
  r.digest = perfbench::digest(chunk.iq);
  r.session = session;
  r.outputs = static_cast<std::uint32_t>(chunk.iq.size());
  r.gap = chunk.gap_before;
  r.dropped = chunk.dropped_feed_samples > 0 || chunk.dropped_output_samples > 0;
  return r;
}

void SessionCheck::on_chunk(const ChunkRecord& chunk) {
  if (chunk.seq < entries_.size()) {
    ++misordered_;  // a duplicate, or an earlier block arriving late
    return;
  }
  entries_.resize(chunk.seq);  // skipped blocks stay absent (= missing)
  Entry e;
  e.present = true;
  e.digest = chunk.digest;
  e.outputs = chunk.outputs;
  e.gap = chunk.gap;
  e.dropped = chunk.dropped;
  entries_.push_back(e);
}

std::uint64_t SessionCheck::failed_against(
    const std::vector<std::uint64_t>& reference) const {
  std::uint64_t failed = misordered_;
  for (std::size_t k = 0; k < std::max(reference.size(), entries_.size()); ++k) {
    if (k >= reference.size() || k >= entries_.size()) {
      ++failed;  // missing, or a block the feed never produced
      continue;
    }
    const Entry& e = entries_[k];
    if (!e.present || e.gap != stream::GapCause::kNone || e.dropped ||
        e.digest != reference[k])
      ++failed;
  }
  return failed;
}

std::uint64_t SessionCheck::failed_retuned(
    std::uint64_t expected_blocks, std::size_t block_samples, const Cadence& cadence,
    const std::vector<std::uint64_t>& flush_seqs) const {
  std::uint64_t failed = misordered_;
  std::uint64_t origin = 0;  // stream position of the last flush restart
  const std::uint64_t b = block_samples;
  for (std::uint64_t k = 0; k < std::max<std::uint64_t>(expected_blocks, entries_.size());
       ++k) {
    if (k >= expected_blocks || k >= entries_.size() || !entries_[k].present) {
      ++failed;
      continue;
    }
    const Entry& e = entries_[k];
    const bool flushed =
        std::find(flush_seqs.begin(), flush_seqs.end(), k) != flush_seqs.end();
    bool ok = !e.dropped && (e.gap == stream::GapCause::kRetuneFlush) == flushed;
    if (e.gap == stream::GapCause::kRetuneFlush)
      origin = k * b;
    else if (e.gap != stream::GapCause::kNone)
      ok = false;
    const std::uint64_t want = cadence.outputs_after((k + 1) * b - origin) -
                               cadence.outputs_after(k * b - origin);
    if (!ok || e.outputs != want) ++failed;
  }
  return failed;
}

std::vector<std::uint64_t> reference_digests(const std::string& backend,
                                             const core::ChainPlan& plan,
                                             const Feed& feed,
                                             std::size_t block_samples,
                                             std::uint64_t blocks) {
  std::unique_ptr<core::DdcPipeline> pipe;
  std::unique_ptr<core::ArchitectureBackend> inline_backend;
  if (backend == twiddc::backends::kNative) {
    pipe = std::make_unique<core::DdcPipeline>(plan);
  } else {
    inline_backend = core::BackendRegistry::instance().create(backend);
    inline_backend->configure(plan);
  }
  std::vector<std::int64_t> in(block_samples);
  std::vector<core::IqSample> out;
  std::vector<std::uint64_t> digests;
  digests.reserve(blocks);
  for (std::uint64_t k = 0; k < blocks; ++k) {
    feed.fill(k * block_samples, in);
    out.clear();
    if (pipe)
      pipe->process_block(in, out);
    else
      inline_backend->process_block(in, out);
    digests.push_back(digest(out));
  }
  return digests;
}

}  // namespace perfbench
