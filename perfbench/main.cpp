// perfbench_ddc -- the repo benchmark driver.
//
//   perfbench_ddc --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans-dir <dir>]
//   perfbench_ddc --setup-only --workload <name> --seed <n>
//
// One process serves one workload from one seeded feed through the public
// stream API (StreamEngine, Session, a replay Source) and checks every chunk.
// --trace 0 prints the end-to-end metrics of one measured window; --trace 1
// splits the window into an untraced and a traced half (the difference is
// the tracing overhead), derives the per-layer metrics from the traced
// half's spans and runs the single-threaded layer probes.  The last stdout
// line is the result object; everything before it is for people.
//
// Why these workloads (both closed loops: a block is due when the pump asks
// for it):
//   fanout64    64 detuned Figure-1 sessions on native-pipeline: kernel and
//               executor work dominate and engine overhead is amortised, so
//               a dsp/core speed-up shows here.
//   mixed_arch  one session on each of the seven backends plus functional
//               sessions: per-session cost differs ~50x and gpp-arm is the
//               critical path, so a scheduler or simulator gain moves it and
//               a dsp gain should not.
// Every workload runs the same client control probe (one retune every
// kRetunePeriodNs, alternating a kSplice to a fresh NCO frequency -- a plan
// cache miss -- and a kFlush back to the session's own plan -- a hit), so
// the retune metrics measure the control plane under saturation.
//
// Cold start: the first engine pass in a process ran 5-10x slower than the
// next in probes.  Every window therefore follows an untimed warm-up (see
// kMinWarmupNs); the time its first Workload::warmup_blocks take is
// reported as engine.cold_pass_s.  setup_s stays cold.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "src/backends/builtin.hpp"
#include "src/common/rng.hpp"
#include "src/common/simd.hpp"
#include "src/common/trace.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/plan_compiler.hpp"
#include "src/stream/engine.hpp"

namespace perfbench {
namespace {

using twiddc::Rng;
namespace backends = twiddc::backends;

constexpr std::int64_t kRetunePeriodNs = 8'000'000;
/// The window is measured in slices; each end-to-end figure but the retune
/// latencies is the median over slices, so a burst of interference from
/// outside the process moves one slice, not the result.
constexpr std::int64_t kSliceNs = 500'000'000;
/// Warm-up before every window: at least the workload's warmup_blocks
/// (whose wall time is the reported cold pass) and at least this long, as
/// the serving rate kept climbing for a second or two after the cold pass
/// in probes.
constexpr std::int64_t kMinWarmupNs = 2'000'000'000;
/// Extra functional-session sets in mixed_arch (one each of native, fixed,
/// float and gc4016 per set): enough that the rest of the mix needs about
/// two of the three workers at the gpp-arm session's inline rate.
constexpr int kMixedExtraSets = 9;

int worker_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::max(1, static_cast<int>(n) - 1);  // the pump gets its own core
}

core::DdcConfig seeded_config(Rng& rng) {
  return core::DdcConfig::reference(rng.uniform(5.0e6, 20.0e6));
}

core::ChainPlan plan_on(const std::string& backend, const core::DdcConfig& cfg) {
  return core::BackendRegistry::instance().create(backend)->plan_for(cfg);
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "fanout64" || name == "mixed_arch";
}

Workload build_workload(const std::string& name, std::uint64_t seed) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  Workload w;
  w.name = name;
  w.config = seeded_config(rng);
  auto detuned = [&](double offset_hz) {
    auto cfg = w.config;
    cfg.nco_freq_hz += offset_hz + rng.uniform(-1.0e3, 1.0e3);
    return cfg;
  };
  if (name == "fanout64") {
    w.warmup_blocks = 100;
    for (int k = 0; k < 64; ++k)
      w.sessions.push_back({backends::kNative, plan_on(backends::kNative, detuned(37.5e3 * k))});
    w.retuned = 63;
  } else if (name == "mixed_arch") {
    w.warmup_blocks = 40;
    for (const auto& b : {backends::kNative, backends::kFixedDdc, backends::kFloatDdc,
                          backends::kGc4016, backends::kFpga, backends::kGpp,
                          backends::kMontium})
      w.sessions.push_back({b, plan_on(b, w.config)});
    int k = 1;
    for (int set = 0; set < kMixedExtraSets; ++set)
      for (const auto& b :
           {backends::kNative, backends::kFixedDdc, backends::kFloatDdc, backends::kGc4016})
        w.sessions.push_back({b, plan_on(b, detuned(37.5e3 * k++))});
    w.retuned = 7;  // the first extra native-pipeline session
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

namespace {

// ------------------------------------------------------------------ serving

struct ServeResult {
  double setup_s = 0.0;
  double cold_pass_s = 0.0;
  double window_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t window_start_ns = 0;
  std::int64_t window_end_ns = 0;
  std::uint64_t window_samples = 0;  ///< channel-samples polled in the window
  std::uint64_t window_feed_blocks = 0;
  std::vector<double> retune_ms;
  struct Slice {
    double seconds = 0.0;
    double cpu_s = 0.0;
    std::uint64_t samples = 0;
    std::vector<double> latency_ms;  ///< chunks due in the slice
  };
  std::vector<Slice> slices;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::string problems;
  double rss_mb = 0.0;
  std::string stats_json;
  core::CompiledPlanCache::Stats cache_before;
  core::CompiledPlanCache::Stats cache_after;
  std::vector<ChunkRecord> chunks;  ///< every polled chunk, in poll order
  std::vector<BlockStamp> blocks;   ///< every feed block, by seq
  std::size_t first_log = 0;        ///< traced runs: the first session's CallLog
};

/// Forwards to a ReplaySource the caller keeps a handle on (the engine owns
/// its Source; the client needs the block stamps after the run).
class SharedSource final : public stream::Source {
 public:
  explicit SharedSource(std::shared_ptr<ReplaySource> inner) : inner_(std::move(inner)) {}
  std::size_t read(std::span<std::int64_t> out) override { return inner_->read(out); }

 private:
  std::shared_ptr<ReplaySource> inner_;
};

stream::EngineOptions engine_options() {
  stream::EngineOptions opts;
  opts.workers = worker_count();
  opts.block_samples = kBlockSamples;
  return opts;
}

std::vector<core::ChainPlan> fresh_retune_plans(const core::ChainPlan& base,
                                                std::uint64_t seed, std::size_t count) {
  Rng rng(seed ^ 0x7e7e7e7e5eedull);
  std::vector<core::ChainPlan> plans(count, base);
  for (auto& p : plans) p.front_end.nco_freq_hz = rng.uniform(1.0e6, 30.0e6);
  return plans;
}

void add_problem(ServeResult& r, const std::string& what) {
  r.correct = false;
  if (!r.problems.empty()) r.problems += "; ";
  r.problems += what;
}

ServeResult serve(const std::string& name, std::uint64_t seed,
                  const std::shared_ptr<const Feed>& feed, double seconds,
                  SpanRecorder* recorder) {
  ServeResult r;
  r.cache_before = core::CompiledPlanCache::instance().stats();

  // The harness's own bookkeeping is sized before set-up: the slices and the
  // retune samples here, every chunk and feed block in logs outside the
  // resident set.  What grows during the run is the serving system's.
  r.slices.resize(std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(seconds * 1e9 / kSliceNs))));
  const auto max_retunes =
      static_cast<std::size_t>(static_cast<std::int64_t>(r.slices.size()) * kSliceNs /
                               kRetunePeriodNs) + 2;
  r.retune_ms.reserve(max_retunes);
  std::vector<std::uint64_t> flush_seqs;  // first block after each kFlush
  flush_seqs.reserve(max_retunes);
  auto source = std::make_shared<ReplaySource>(feed);
  RecordLog<ChunkRecord> chunk_log("perfbench-chunks");

  // ---- set-up (cold): build plans, open every session, start.
  const std::int64_t setup_start = now_ns();
  const Workload w = build_workload(name, seed);
  stream::StreamEngine engine(std::make_unique<SharedSource>(source), engine_options());
  r.first_log = recorder ? recorder->logs_created() : 0;
  std::vector<std::shared_ptr<stream::Session>> sessions;
  for (const auto& s : w.sessions)
    sessions.push_back(
        engine.open(s.plan, recorder ? SpanRecorder::timed_name(s.backend) : s.backend));
  engine.start();
  const std::int64_t started = now_ns();
  r.setup_s = 1e-9 * static_cast<double>(started - setup_start);

  const auto& base = w.sessions[w.retuned].plan;
  const auto fresh = fresh_retune_plans(base, seed, max_retunes);

  // ---- client loop: warm-up, measured window, drain.
  enum class Phase { kWarmup, kWindow, kDrain } phase = Phase::kWarmup;
  std::vector<std::uint64_t> next_seq(sessions.size(), 0);
  std::int64_t window_start = std::numeric_limits<std::int64_t>::max();
  std::int64_t window_end = std::numeric_limits<std::int64_t>::max();
  std::int64_t next_retune = 0;
  double cpu_start = 0.0;
  std::size_t slice = 0;  // the slice being measured
  std::int64_t slice_start = 0;
  double slice_cpu = 0.0;
  std::size_t retunes = 0;
  std::uint64_t rejected = 0;
  for (;;) {
    const auto token = engine.output_token();
    bool any = false;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const std::int64_t poll_start = now_ns();
      auto chunks = sessions[i]->poll();
      if (chunks.empty()) continue;
      const std::int64_t poll_end = now_ns();
      any = true;
      for (const auto& chunk : chunks) {
        ChunkRecord record = ChunkRecord::of(static_cast<std::uint32_t>(i), chunk);
        record.poll_start_ns = poll_start;
        record.poll_end_ns = poll_end;
        chunk_log.append(record);
        next_seq[i] = chunk.block_seq + 1;
        if (phase == Phase::kWindow) {
          r.window_samples += kBlockSamples;
          r.slices[slice].samples += kBlockSamples;
        }
      }
    }
    const std::int64_t now = now_ns();
    if (phase == Phase::kWarmup && r.cold_pass_s == 0.0 &&
        std::all_of(next_seq.begin(), next_seq.end(),
                    [&](std::uint64_t s) { return s >= w.warmup_blocks; }))
      r.cold_pass_s = 1e-9 * static_cast<double>(now - started);
    if (phase == Phase::kWarmup && r.cold_pass_s > 0.0 && now - started >= kMinWarmupNs) {
      phase = Phase::kWindow;
      window_start = now;
      window_end = now + static_cast<std::int64_t>(r.slices.size()) * kSliceNs;
      next_retune = now + kRetunePeriodNs;
      cpu_start = slice_cpu = process_cpu_seconds();
      slice_start = now;
    } else if (phase == Phase::kWindow &&
               now >= window_start + static_cast<std::int64_t>(slice + 1) * kSliceNs) {
      const double cpu = process_cpu_seconds();
      r.slices[slice].seconds = 1e-9 * static_cast<double>(now - slice_start);
      r.slices[slice].cpu_s = cpu - slice_cpu;
      slice_start = now;
      slice_cpu = cpu;
      if (++slice == r.slices.size()) {
        phase = Phase::kDrain;
        r.cpu_s = cpu - cpu_start;
        r.window_s = 1e-9 * static_cast<double>(now - window_start);
        source->stop();
      }
    } else if (phase == Phase::kWindow && now >= next_retune) {
      const bool splice = retunes % 2 == 0;
      const auto mode = splice ? core::SwapMode::kSplice : core::SwapMode::kFlush;
      const std::int64_t t0 = now_ns();
      const bool ok = sessions[w.retuned]->retune(
          splice ? fresh[std::min(retunes / 2, fresh.size() - 1)] : base, mode);
      r.retune_ms.push_back(1e-6 * static_cast<double>(now_ns() - t0));
      ++retunes;
      if (!ok) ++rejected;
      if (ok && !splice)
        flush_seqs.push_back(sessions[w.retuned]->stats().last_retune_block);
      next_retune = std::max(next_retune + kRetunePeriodNs, now_ns());
    }
    if (any) continue;
    if (phase == Phase::kDrain &&
        std::all_of(sessions.begin(), sessions.end(),
                    [&](const auto& s) { return engine.finished(*s); }))
      break;
    engine.wait_output(token);
  }
  engine.stop();
  // The high-water mark of the whole run, the window and the drain
  // included.  Everything the harness allocates per chunk or per block
  // comes after this line.
  r.rss_mb = peak_rss_mb();
  r.window_start_ns = window_start;
  r.window_end_ns = window_end;
  r.stats_json = engine.stats_json();
  r.cache_after = core::CompiledPlanCache::instance().stats();
  r.blocks = source->stamps();
  r.chunks = chunk_log.load();
  for (const auto& b : r.blocks)
    if (b.return_ns >= window_start && b.return_ns <= window_end) ++r.window_feed_blocks;

  // ---- chunk latency: from the moment the pump asked for the block to the
  // poll that returned its chunk, filed under the slice the block was due in.
  std::vector<SessionCheck> checks(sessions.size());
  for (const auto& c : r.chunks) {
    checks[c.session].on_chunk(c);
    if (c.seq >= r.blocks.size()) continue;  // the checker counts it
    const std::int64_t due = r.blocks[c.seq].call_ns;
    if (due >= window_start && due < window_end)
      r.slices[static_cast<std::size_t>((due - window_start) / kSliceNs)]
          .latency_ms.push_back(1e-6 * static_cast<double>(c.poll_end_ns - due));
  }

  // ---- correctness: every chunk of every session against its reference.
  const std::uint64_t blocks = r.blocks.size();
  r.attempted = blocks * sessions.size();
  if (engine.source_fault().cause != twiddc::FaultCause::kNone)
    add_problem(r, "the feed faulted");
  for (std::size_t i = 0; i < sessions.size(); ++i)
    if (sessions[i]->stats().faults > 0 ||
        sessions[i]->health() != stream::SessionHealth::kHealthy)
      add_problem(r, "session " + std::to_string(i) + " faulted: " +
                         sessions[i]->last_error());
  if (rejected > 0) add_problem(r, std::to_string(rejected) + " retunes rejected");
  std::vector<std::uint64_t> failed(sessions.size(), 0);
  std::vector<std::string> errors(sessions.size());
  std::atomic<std::size_t> next{0};
  auto verify = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < sessions.size();) {
      try {
        failed[i] = i == w.retuned
                        ? checks[i].failed_retuned(blocks, kBlockSamples,
                                                   Cadence::of(base), flush_seqs)
                        : checks[i].failed_against(reference_digests(
                              w.sessions[i].backend, w.sessions[i].plan, *feed,
                              kBlockSamples, blocks));
      } catch (const std::exception& e) {
        failed[i] = blocks;  // no reference, nothing verified
        errors[i] = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned t = 0; t < std::min<std::size_t>(threads, sessions.size()); ++t)
    pool.emplace_back(verify);
  for (auto& t : pool) t.join();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    r.failed += failed[i];
    if (!errors[i].empty())
      add_problem(r, "session " + std::to_string(i) + " reference: " + errors[i]);
  }
  if (r.failed > 0) add_problem(r, std::to_string(r.failed) + " chunks failed the check");
  return r;
}

// ---------------------------------------------------------------- reporting

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Sum of every numeric value of `"key":` in a flat-rendered JSON document.
double json_sum(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  double sum = 0.0;
  for (std::size_t pos = json.find(needle); pos != std::string::npos;
       pos = json.find(needle, pos + needle.size()))
    sum += std::strtod(json.c_str() + pos + needle.size(), nullptr);
  return sum;
}

void print_tail(const char* label, const std::vector<double>& v, double wanted,
                const char* unit) {
  const Tail t = tail_percentile(v, wanted);
  std::printf("  %-22s p50 %.4f %s, p%g %.4f %s (%zu samples)\n", label, median(v), unit,
              t.percentile, t.value, unit, t.samples);
}

/// Every end-to-end metric of one serve.  The result object carries the
/// bounded ones (kBounded); the medians are printed beside them but carry no
/// bound: they follow the scheduler's session placement and read 4 or 10 ms
/// (mixed_arch chunk latency) from run to run of one build, while the tails
/// are set by the critical path and repeat.
std::vector<Metric> end_to_end(const ServeResult& r, double setup_s) {
  std::vector<double> msps, p50, p99, cores;
  for (const auto& s : r.slices) {
    msps.push_back(static_cast<double>(s.samples) / s.seconds / 1e6);
    p50.push_back(median(s.latency_ms));
    p99.push_back(tail_percentile(s.latency_ms, 99.0).value);
    cores.push_back(s.cpu_s / s.seconds);
  }
  return {
      {"throughput_msps", median(msps), "MS/s"},
      {"chunk_latency_p50_ms", median(p50), "ms"},
      {"chunk_latency_p99_ms", median(p99), "ms"},
      {"retune_latency_p50_ms", median(r.retune_ms), "ms"},
      {"retune_latency_p99_ms", tail_percentile(r.retune_ms, 99.0).value, "ms"},
      {"cpu_cores", median(cores), "cores"},
      {"fail_frac",
       static_cast<double>(r.failed) / static_cast<double>(std::max<std::uint64_t>(1, r.attempted)),
       "fraction"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", r.rss_mb, "MB"},
  };
}

constexpr const char* kBounded[] = {"throughput_msps",       "chunk_latency_p99_ms",
                                    "retune_latency_p99_ms", "cpu_cores",
                                    "setup_s",               "peak_rss_mb"};

/// Per-layer stream metrics from the traced half's spans.
std::vector<Metric> stream_layer_metrics(const ServeResult& traced,
                                         const SpanRecorder& recorder,
                                         std::size_t sessions) {
  const auto& blocks = traced.blocks;
  const auto in_window = [&](std::int64_t t) {
    return t >= traced.window_start_ns && t <= traced.window_end_ns;
  };
  std::vector<double> input_wait, output_wait, fanout, late, poll_us;
  double busy_ns = 0.0;
  for (std::size_t i = 0; i < sessions; ++i) {
    const auto& calls = recorder.log(traced.first_log + i).calls;
    for (std::size_t k = 0; k < calls.size() && k < blocks.size(); ++k) {
      if (!in_window(calls[k].start_ns)) continue;
      busy_ns += static_cast<double>(calls[k].end_ns - calls[k].start_ns);
      input_wait.push_back(1e-6 * static_cast<double>(calls[k].start_ns - blocks[k].return_ns));
    }
  }
  for (const auto& c : traced.chunks) {
    if (!in_window(c.poll_end_ns)) continue;
    const auto& calls = recorder.log(traced.first_log + c.session).calls;
    output_wait.push_back(1e-6 * static_cast<double>(c.poll_end_ns - calls.at(c.seq).end_ns));
    poll_us.push_back(1e-3 * static_cast<double>(c.poll_end_ns - c.poll_start_ns));
  }
  for (std::size_t k = 0; k + 1 < blocks.size(); ++k) {
    if (!in_window(blocks[k].call_ns)) continue;
    // A block is due when the pump asks for it, so the generator is late by
    // exactly the read.
    late.push_back(1e-6 * static_cast<double>(blocks[k].return_ns - blocks[k].call_ns));
    fanout.push_back(1e-3 * static_cast<double>(blocks[k + 1].call_ns - blocks[k].return_ns));
  }
  const double blocks_processed = json_sum(traced.stats_json, "blocks_processed");
  const double executed = json_sum(traced.stats_json, "tasks_executed");
  std::printf("stream layer (traced half):\n");
  print_tail("engine.input_wait", input_wait, 99.0, "ms");
  print_tail("engine.output_wait", output_wait, 99.0, "ms");
  print_tail("pump.fanout", fanout, 50.0, "us");
  print_tail("pump.read_late", late, 99.0, "ms");
  print_tail("client.poll", poll_us, 50.0, "us");
  return {
      {"engine.backend_frac",
       busy_ns / (1e9 * traced.window_s * static_cast<double>(worker_count())), "fraction"},
      {"engine.input_wait_ms_p50", median(input_wait), "ms"},
      {"engine.input_wait_ms_p99", tail_percentile(input_wait, 99.0).value, "ms"},
      {"engine.output_wait_ms_p50", median(output_wait), "ms"},
      {"engine.output_wait_ms_p99", tail_percentile(output_wait, 99.0).value, "ms"},
      {"pump.fanout_us_p50", median(fanout), "us"},
      {"client.poll_us_p50", median(poll_us), "us"},
      {"pump.read_late_ms_p99", tail_percentile(late, 99.0).value, "ms"},
      {"sched.wakeups_per_block",
       json_sum(traced.stats_json, "targeted_wakeups") / blocks_processed, "count"},
      {"sched.steal_ratio",
       executed > 0 ? json_sum(traced.stats_json, "tasks_stolen") / executed : 0.0,
       "fraction"},
      {"sched.passes_per_block",
       json_sum(traced.stats_json, "service_passes") / blocks_processed, "count"},
  };
}

/// Writes the traced half's spans as a Chrome trace (chrome://tracing,
/// ui.perfetto.dev).  Every span carries its block id (session, feed seq)
/// and its parent: source.read <- block <- {backend.process_block,
/// client.poll}.  Capped so a long run stays a loadable file.
void write_spans(const std::string& path, const ServeResult& traced,
                 const SpanRecorder& recorder, const std::string& provenance) {
  constexpr std::size_t kMaxEvents = 200000;
  const auto& blocks = traced.blocks;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  const std::int64_t t0 = traced.window_start_ns;
  const auto in_window = [&](std::uint64_t seq) {
    return seq < blocks.size() && blocks[seq].call_ns >= t0 &&
           blocks[seq].call_ns <= traced.window_end_ns;
  };
  std::size_t events = 0;
  bool first = true;
  auto span = [&](const char* name, int tid, std::int64_t start, std::int64_t end,
                  long long session, std::uint64_t seq, const char* parent) {
    if (events >= kMaxEvents) return;
    ++events;
    out << (first ? "" : ",\n") << "{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":1"
        << ",\"tid\":" << tid << ",\"ts\":" << fmt(1e-3 * static_cast<double>(start - t0))
        << ",\"dur\":" << fmt(1e-3 * static_cast<double>(end - start))
        << ",\"args\":{\"session\":" << session << ",\"seq\":" << seq << ",\"parent\":\""
        << parent << "\"}}";
    first = false;
  };
  out << "{\"otherData\":" << provenance << ",\"traceEvents\":[\n";
  for (std::uint64_t k = 0; k < blocks.size(); ++k)
    if (in_window(k)) span("source.read", 0, blocks[k].call_ns, blocks[k].return_ns, -1, k, "");
  for (const auto& c : traced.chunks) {
    if (!in_window(c.seq)) continue;
    const auto& call = recorder.log(traced.first_log + c.session).calls.at(c.seq);
    const int tid = 1 + static_cast<int>(c.session);
    span("block", tid, blocks[c.seq].call_ns, c.poll_end_ns, c.session, c.seq, "source.read");
    span("backend.process_block", tid, call.start_ns, call.end_ns, c.session, c.seq, "block");
    span("client.poll", tid, c.poll_start_ns, c.poll_end_ns, c.session, c.seq, "block");
  }
  out << "\n]}\n";
}

void print_result(const ServeResult& r, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  line += "}}";
  std::printf("%s\n", line.c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string spans_dir;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_ddc: %s\nusage: perfbench_ddc --workload fanout64|mixed_arch "
               "--seed N --seconds S --trace 0|1 [--spans-dir DIR] [--setup-only]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // The program measured must be the one built: no environment setting may
  // switch tracing, FIR lowering or the worker count underneath the run.
  for (const char* var : {"TWIDDC_TRACE", "TWIDDC_FIR_LOWERING", "TWIDDC_WORKERS"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench_ddc: refusing to run with %s set\n", var);
      return 2;
    }
  }
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload")
      a.workload = value;
    else if (flag == "--seed")
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds")
      a.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace")
      a.trace = value == "1";
    else if (flag == "--spans-dir")
      a.spans_dir = value;
    else
      return usage(("unknown flag " + flag).c_str());
  }
  if (!known_workload(a.workload)) return usage("unknown or missing --workload");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) return usage("--seconds out of range");

  twiddc::backends::register_builtin();
  if (twiddc::trace::enabled_mask() != 0) return usage("library tracing is enabled");
  auto feed = std::make_shared<const Feed>(a.seed, kFeedBits, kAdcRateHz, kFeedLength);

  if (a.setup_only) {
    // A fresh process per sample keeps set-up cold: no compiled plan, no
    // pooled coefficients, no warmed allocator.  An empty feed ends at once.
    auto source = std::make_unique<ReplaySource>(feed, 0);
    const std::int64_t t0 = now_ns();
    const Workload w = build_workload(a.workload, a.seed);
    stream::StreamEngine engine(std::move(source), engine_options());
    for (const auto& s : w.sessions) engine.open(s.plan, s.backend);
    engine.start();
    const double setup_s = 1e-9 * static_cast<double>(now_ns() - t0);
    engine.stop();
    std::printf("{\"setup_s\": %s}\n", fmt(setup_s).c_str());
    return 0;
  }

  const std::string provenance =
      "{\"workload\": \"" + a.workload + "\", \"seed\": " + std::to_string(a.seed) +
      ", \"seconds\": " + fmt(a.seconds) + ", \"trace\": " + (a.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"workers\": " + std::to_string(worker_count()) + ", \"build_type\": \"" +
      PERFBENCH_BUILD_TYPE + "\", \"simd_path\": \"" + twiddc::simd::active_path() + "\"}";
  std::printf("provenance: %s\n", provenance.c_str());
  std::fflush(stdout);

  auto report_serve = [](const char* label, const ServeResult& r) {
    std::printf("%s: setup %.4f s, cold pass %.4f s, window %.3f s, %.2f MS/s, "
                "%.3f cores, fail_frac %.6g (%" PRIu64 "/%" PRIu64 ")%s%s\n",
                label, r.setup_s, r.cold_pass_s, r.window_s,
                static_cast<double>(r.window_samples) / r.window_s / 1e6,
                r.cpu_s / r.window_s,
                r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                            : 0.0,
                r.failed, r.attempted, r.correct ? "" : " -- ", r.problems.c_str());
    std::vector<double> latency;
    for (const auto& s : r.slices)
      latency.insert(latency.end(), s.latency_ms.begin(), s.latency_ms.end());
    print_tail("chunk_latency", latency, 99.0, "ms");
    print_tail("retune_latency", r.retune_ms, 99.0, "ms");
    std::printf("  per-slice MS/s:");
    for (const auto& s : r.slices)
      std::printf(" %.1f", static_cast<double>(s.samples) / s.seconds / 1e6);
    std::printf("\n  per-slice chunk p99 ms:");
    for (const auto& s : r.slices)
      std::printf(" %.2f", tail_percentile(s.latency_ms, 99.0).value);
    std::printf("\n");
    std::fflush(stdout);
  };

  if (!a.trace) {
    const ServeResult r = serve(a.workload, a.seed, feed, a.seconds, nullptr);
    report_serve("untraced", r);
    std::vector<Metric> bounded;
    for (const auto& m : end_to_end(r, r.setup_s)) {
      std::printf("  %-22s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      if (std::find_if(std::begin(kBounded), std::end(kBounded), [&](const char* n) {
            return m.name == n;
          }) != std::end(kBounded))
        bounded.push_back(m);
    }
    print_result(r, bounded);
    return 0;
  }

  // Traced: an untraced half (the cold pass and the overhead baseline), then
  // a traced half whose spans give the stream layer, then the probes.
  SpanRecorder recorder;
  recorder.register_timed_backends();
  const ServeResult plain = serve(a.workload, a.seed, feed, a.seconds / 2, nullptr);
  report_serve("untraced half", plain);
  const ServeResult traced = serve(a.workload, a.seed, feed, a.seconds / 2, &recorder);
  report_serve("traced half", traced);

  const Workload w = build_workload(a.workload, a.seed);
  std::vector<Metric> metrics = stream_layer_metrics(traced, recorder, w.sessions.size());
  const auto cpu_per_sample = [](const ServeResult& r) {
    return r.cpu_s / static_cast<double>(std::max<std::uint64_t>(1, r.window_samples));
  };
  metrics.push_back({"trace.overhead_frac",
                     cpu_per_sample(traced) / cpu_per_sample(plain) - 1.0, "fraction"});
  metrics.push_back({"engine.cold_pass_s", plain.cold_pass_s, "s"});
  const auto& cb = traced.cache_before;
  const auto& ca = traced.cache_after;
  metrics.push_back({"core.plan_cache.hit_ratio",
                     static_cast<double>(ca.hits - cb.hits) /
                         static_cast<double>(std::max<std::uint64_t>(1, ca.lookups - cb.lookups)),
                     "fraction"});

  const auto layers = layer_metrics(w, *feed, a.seed);
  metrics.insert(metrics.end(), layers.begin(), layers.end());
  // The critical path: the achieved feed rate against the slowest backend
  // the workload serves (gpp-arm on mixed_arch), both in MS/s of feed.
  double slowest = std::numeric_limits<double>::max();
  for (const auto& s : w.sessions)
    for (const auto& m : layers)
      if (m.name == "backend." + s.backend + ".msps") slowest = std::min(slowest, m.value);
  const double feed_msps = static_cast<double>(traced.window_feed_blocks * kBlockSamples) /
                           traced.window_s / 1e6;
  metrics.push_back({"engine.critical_path_frac", feed_msps / slowest, "fraction"});

  if (!a.spans_dir.empty()) {
    std::filesystem::create_directories(a.spans_dir);
    const std::string path =
        a.spans_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) + ".json";
    write_spans(path, traced, recorder, provenance);
    std::printf("spans written to %s\n", path.c_str());
  }

  ServeResult both = traced;
  both.attempted = plain.attempted + traced.attempted;
  both.failed = plain.failed + traced.failed;
  both.correct = plain.correct && traced.correct;
  print_result(both, metrics);
  return 0;
}
