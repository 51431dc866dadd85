// Pipeline hot-path throughput: block-based process_block() vs per-sample
// push() on the paper's Figure 1 chain (and the GC4016 Figure 4 channel),
// per-kernel block rates (the SIMD-shim kernels NCO/mixer and polyphase
// FIR, and the CIC kernels: the recursive integrator cascade, a
// loop-carried chain that does not vectorise along time, and for cic2 also
// Hogenauer's non-recursive form that the fused executor runs, whose plain
// loops the compiler vectorises), and multi-channel ChannelBank batch
// scaling -- emitted as machine-readable JSON lines so successive PRs can
// track the performance trajectory.  The "simd" field records the kernel
// tier the library dispatched to (simd::active_path()); the recursive CIC
// cascade runs the same code on every tier.
//
// Output format (one JSON object per line, prefixed section aside):
//   {"bench": "throughput_pipeline", "chain": "figure1:wide16",
//    "push_msamples_per_s": ..., "block_msamples_per_s": ...,
//    "speedup_block_over_push": ..., "block_samples": ..., "simd": "avx2"}
//   {"bench": "throughput_pipeline", "kernel": "cic2", ...,
//    "nonrecursive_msamples_per_s": ...,
//    "speedup_nonrecursive_over_recursive": ..., "bit_exact": true}
//   {"bench": "throughput_pipeline", "chain": "channel_bank:figure1",
//    "channels": 8, "workers": 1, "aggregate_msamples_per_s": ...,
//    "scaling_vs_single": ...}
//   {"bench": "throughput_pipeline", "chain": "stream_engine:figure1",
//    "sessions": 16, "workers": 4, "aggregate_msamples_per_s": ...,
//    "scaling_vs_single": ...}
// Keys are stable and additive.  Besides the chain, kernel and channel-bank
// lines above, the bench emits:
//   "figure1:fused_vs_staged"   the plan compiler's fused tile executor vs
//                               the staged pipeline, bit-exactness asserted
//                               inline;
//   "plan_cache"                compile-time amortisation: 64 sessions
//                               sharing one config vs 64 distinct configs;
//   "stream_engine:overload"    survivor p99 inter-chunk gap at 2x
//                               oversubscription, shedding off and on;
//   "stream_engine:trace"       the cost of recording trace events.
// Engine lines carry "workers_effective", the engine's resolved worker count
// (where TWIDDC_WORKERS lands).  Every line is teed through
// benchutil::emit, so --out FILE / TWIDDC_BENCH_OUT appends
// BENCH_<name>.json records for the trajectory.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/metrics.hpp"
#include "src/common/trace.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/source.hpp"

#include "bench/bench_util.hpp"
#include "src/asic/gc4016.hpp"
#include "src/backends/builtin.hpp"
#include "src/common/simd.hpp"
#include "src/core/backend.hpp"
#include "src/core/channel_bank.hpp"
#include "src/core/fixed_ddc.hpp"
#include "src/core/float_ddc.hpp"
#include "src/core/plan_compiler.hpp"
#include "src/dsp/cic.hpp"
#include "src/dsp/fir.hpp"
#include "src/dsp/fir_design.hpp"
#include "src/dsp/mixer.hpp"
#include "src/dsp/nco.hpp"
#include "src/dsp/signal.hpp"

namespace {

using twiddc::benchutil::JsonLine;
using twiddc::benchutil::Throughput;
using twiddc::benchutil::measure_throughput;
using twiddc::core::ChainPlan;
using twiddc::core::ChannelBank;
using twiddc::core::DatapathSpec;
using twiddc::core::DdcConfig;
using twiddc::core::FixedDdc;
using twiddc::core::IqSample;

constexpr std::size_t kBlock = 2688 * 16;  // 16 output frames per rep

std::vector<std::int64_t> figure1_stimulus(const DdcConfig& cfg, std::size_t n) {
  return twiddc::dsp::quantize_signal(
      twiddc::dsp::make_tone(10.0025e6, cfg.input_rate_hz, n, 0.7), 12);
}

void bench_figure1(const DatapathSpec& spec) {
  const auto cfg = DdcConfig::reference(10.0e6);
  const auto input = figure1_stimulus(cfg, kBlock);

  FixedDdc by_push(cfg, spec);
  std::vector<IqSample> sink;
  const Throughput push = measure_throughput(input.size(), [&] {
    sink.clear();
    for (std::int64_t x : input) {
      if (auto y = by_push.push(x)) sink.push_back(*y);
    }
  });

  FixedDdc by_block(cfg, spec);
  const Throughput block = measure_throughput(input.size(), [&] {
    sink.clear();
    by_block.process_block(input, sink);
  });

  twiddc::benchutil::emit(
      "figure1:" + spec.name,
      twiddc::benchutil::throughput_json("throughput_pipeline",
                                         "figure1:" + spec.name, push, block,
                                         input.size())
          .field("simd", twiddc::simd::active_path()));
}

// -------------------------------------------------- fused vs staged chain

// The plan-compiler acceptance line: the same Figure-1 chain executed by the
// staged DdcPipeline (one memory sweep per stage) and by the fused
// FusedChainExec (L1-sized tiles, conditioning fused into stage outputs).
// The two paths are bit-exact (asserted here and pinned by tests); the line
// records what the fusion buys in block throughput:
//   {"bench": "throughput_pipeline", "chain": "figure1:fused_vs_staged",
//    "staged_msamples_per_s": ..., "fused_msamples_per_s": ...,
//    "speedup_fused_over_staged": ..., ...}

void bench_fused_vs_staged() {
  const auto cfg = DdcConfig::reference(10.0e6);
  const auto spec = DatapathSpec::wide16();
  const auto plan = ChainPlan::figure1(cfg, spec);
  const auto input = figure1_stimulus(cfg, kBlock);

  twiddc::core::DdcPipeline staged(plan);
  std::vector<IqSample> sink;
  const Throughput t_staged = measure_throughput(input.size(), [&] {
    sink.clear();
    staged.process_block(input, sink);
  });
  const std::vector<IqSample> staged_out = sink;

  twiddc::core::FusedChainExec fused(
      twiddc::core::CompiledPlanCache::instance().get_or_compile(plan));
  const Throughput t_fused = measure_throughput(input.size(), [&] {
    sink.clear();
    fused.process_block(input, sink);
  });

  // Not a substitute for the test suite, but a bench that silently compared
  // two different computations would be worse than no bench.
  staged.reset();
  fused.reset();
  std::vector<IqSample> a;
  std::vector<IqSample> b;
  staged.process_block(input, a);
  fused.process_block(input, b);
  const bool bit_exact = a == b;

  JsonLine j;
  j.field("bench", std::string("throughput_pipeline"))
      .field("chain", std::string("figure1:fused_vs_staged"))
      .field("staged_msamples_per_s", t_staged.msamples_per_s())
      .field("fused_msamples_per_s", t_fused.msamples_per_s())
      .field("speedup_fused_over_staged",
             t_staged.msamples_per_s() > 0.0
                 ? t_fused.msamples_per_s() / t_staged.msamples_per_s()
                 : 0.0)
      .field("bit_exact", bit_exact)
      .field("block_samples", input.size())
      .field("simd", twiddc::simd::active_path());
  twiddc::benchutil::emit("figure1:fused_vs_staged", j);
}

// ---------------------------------------------------------- plan cache

// Compile-time amortisation: 64 sessions opening the SAME config share one
// CompiledPlan (63 cache hits), while 64 distinct configs each compile.
//   {"bench": "throughput_pipeline", "chain": "plan_cache", "sessions": 64,
//    "shared_hits": 63, "shared_ms": ..., "distinct_ms": ...,
//    "amortization": distinct/shared, ...}

void bench_plan_cache() {
  auto& cache = twiddc::core::CompiledPlanCache::instance();
  const auto cfg = DdcConfig::reference(10.0e6);
  const auto spec = DatapathSpec::wide16();
  constexpr std::size_t kSessions = 64;

  cache.clear();
  const auto before_shared = cache.stats();
  const auto shared_plan = ChainPlan::figure1(cfg, spec);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < kSessions; ++s)
    (void)cache.get_or_compile(shared_plan);
  const double shared_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  const auto after_shared = cache.stats();

  cache.clear();
  std::vector<ChainPlan> distinct;
  for (std::size_t s = 0; s < kSessions; ++s) {
    auto c = cfg;
    c.nco_freq_hz += 25.0e3 * static_cast<double>(s);
    distinct.push_back(ChainPlan::figure1(c, spec));
  }
  const auto before_distinct = cache.stats();
  const auto t1 = std::chrono::steady_clock::now();
  for (const auto& p : distinct) (void)cache.get_or_compile(p);
  const double distinct_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t1)
          .count();
  const auto after_distinct = cache.stats();

  JsonLine j;
  j.field("bench", std::string("throughput_pipeline"))
      .field("chain", std::string("plan_cache"))
      .field("sessions", kSessions)
      .field("shared_hits",
             static_cast<std::size_t>(after_shared.hits - before_shared.hits))
      .field("shared_misses",
             static_cast<std::size_t>(after_shared.misses - before_shared.misses))
      .field("shared_ms", shared_ms)
      .field("distinct_misses", static_cast<std::size_t>(after_distinct.misses -
                                                         before_distinct.misses))
      .field("distinct_ms", distinct_ms)
      .field("amortization", shared_ms > 0.0 ? distinct_ms / shared_ms : 0.0)
      .field("hit_rate_shared",
             static_cast<double>(after_shared.hits - before_shared.hits) /
                 static_cast<double>(kSessions))
      .field("simd", twiddc::simd::active_path());
  twiddc::benchutil::emit("plan_cache", j);
}

void bench_gc4016() {
  const auto gcfg = twiddc::asic::Gc4016Config::gsm_example();
  twiddc::asic::Gc4016 push_chip(gcfg);
  twiddc::asic::Gc4016 block_chip(gcfg);
  const std::size_t n = static_cast<std::size_t>(
      push_chip.channel(0).total_decimation()) * 64;
  const auto input = twiddc::dsp::quantize_signal(
      twiddc::dsp::make_tone(15.0025e6, gcfg.input_rate_hz, n, 0.7), gcfg.input_bits);

  std::vector<twiddc::asic::Gc4016Output> sink;
  const Throughput push = measure_throughput(input.size(), [&] {
    sink.clear();
    auto& ch = push_chip.channel(0);
    for (std::int64_t x : input) {
      if (auto y = ch.push(x)) sink.push_back(*y);
    }
  });
  const Throughput block = measure_throughput(input.size(), [&] {
    sink.clear();
    block_chip.channel(0).process_block(input, sink);
  });

  twiddc::benchutil::emit(
      "gc4016:figure4",
      twiddc::benchutil::throughput_json("throughput_pipeline", "gc4016:figure4",
                                         push, block, input.size())
          .field("simd", twiddc::simd::active_path()));
}

// ------------------------------------------------------------- kernel rates

void kernel_line(const std::string& kernel, const Throughput& t, std::size_t n) {
  twiddc::benchutil::emit(
      "kernel:" + kernel,
      twiddc::benchutil::kernel_json("throughput_pipeline", kernel, t, n)
          .field("simd", twiddc::simd::active_path()));
}

void bench_kernel_nco_mixer() {
  const auto cfg = DdcConfig::reference(10.0e6);
  const auto input = figure1_stimulus(cfg, kBlock);
  twiddc::dsp::Nco::Config nc;
  nc.freq_hz = cfg.nco_freq_hz;
  nc.sample_rate_hz = cfg.input_rate_hz;
  twiddc::dsp::Nco nco(nc);
  twiddc::dsp::ComplexMixer mixer(twiddc::dsp::ComplexMixer::Config{});
  std::vector<std::int32_t> cos_v(input.size());
  std::vector<std::int32_t> sin_v(input.size());
  std::vector<std::int64_t> out_i(input.size());
  std::vector<std::int64_t> out_q(input.size());
  const Throughput t = measure_throughput(input.size(), [&] {
    nco.next_block(cos_v, sin_v);
    mixer.mix_block(input, cos_v, sin_v, out_i, out_q);
  });
  kernel_line("nco_mixer", t, input.size());
}

void bench_kernel_cic(const std::string& name, int stages, int decimation) {
  twiddc::dsp::CicDecimator::Config cc;
  cc.stages = stages;
  cc.decimation = decimation;
  cc.input_bits = 16;
  twiddc::dsp::CicDecimator cic(cc);
  std::vector<std::int64_t> input(kBlock);
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<std::int64_t>((i * 2654435761u) % 32768) - 16384;
  std::vector<std::int64_t> out;
  const Throughput t = measure_throughput(input.size(), [&] {
    out.clear();
    cic.process_block(input, out);
  });
  JsonLine line = twiddc::benchutil::kernel_json("throughput_pipeline", name, t,
                                                 input.size())
                      .field("simd", twiddc::simd::active_path());
  if (twiddc::dsp::NonRecursiveCic::accepts(cc)) {
    // The same stage in the fused executor's non-recursive form, on the same
    // input; bit_exact diffs one block from reset state against the
    // recursive kernel.
    twiddc::dsp::NonRecursiveCic nr(cc);
    std::vector<std::int64_t> got;
    const Throughput f = measure_throughput(input.size(), [&] {
      got.clear();
      nr.process_block(input, got);
    });
    cic.reset();
    nr.reset();
    out.clear();
    got.clear();
    cic.process_block(input, out);
    nr.process_block(input, got);
    line.field("nonrecursive_msamples_per_s", f.msamples_per_s())
        .field("speedup_nonrecursive_over_recursive",
               f.msamples_per_s() / t.msamples_per_s())
        .field("bit_exact", out == got);
  }
  twiddc::benchutil::emit("kernel:" + name, line);
}

void bench_kernel_fir125() {
  const auto ideal = twiddc::dsp::design_lowpass(125, 0.1, twiddc::dsp::Window::kBlackman);
  const auto q16 = twiddc::dsp::quantize_coefficients(ideal, 15);
  twiddc::dsp::PolyphaseFirDecimator<std::int64_t> fir(
      std::vector<std::int64_t>(q16.begin(), q16.end()), 8);
  std::vector<std::int64_t> input(kBlock);
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<std::int64_t>((i * 2654435761u) % 32768) - 16384;
  std::vector<std::int64_t> out;
  const Throughput t = measure_throughput(input.size(), [&] {
    out.clear();
    fir.process_block(input, out);
  });
  kernel_line("fir125_polyphase", t, input.size());
}

// ------------------------------------------------------ backend plan rates
//
// One line per registered ArchitectureBackend running its own lowering of
// the reference rate plan through the uniform process_block() interface:
//   {"bench": "throughput_pipeline", "backend": "montium",
//    "plan": "figure1:wide-16bit", "block_msamples_per_s": ..., ...}
// The functional backends track the hot path; the cycle-true simulators
// (fpga-rtl, montium, gpp-arm) are orders of magnitude slower by design --
// the lines exist so a regression in *any* execution path shows up in the
// trajectory.

void bench_backends() {
  twiddc::backends::register_builtin();
  const auto cfg = DdcConfig::reference(10.0e6);
  for (auto& backend : twiddc::core::BackendRegistry::instance().create_all()) {
    twiddc::core::ChainPlan plan;
    try {
      plan = backend->plan_for(cfg);
      backend->configure(plan);
    } catch (const twiddc::core::LoweringError&) {
      continue;
    }
    // Cycle-level simulators get a short block and budget; functional
    // backends get the full hot-path block.
    const bool cycle_sim = !backend->capabilities().arbitrary_topology;
    const std::size_t n = cycle_sim ? 2688 * 4 : kBlock;
    const auto input = figure1_stimulus(cfg, n);
    std::vector<IqSample> sink;
    const Throughput t = measure_throughput(
        input.size(),
        [&] {
          // Reset per rep so every rep runs the identical settled-state
          // block (the gpp backend streams incrementally now, but a
          // deterministic rep is still the comparable measurement).
          backend->reset();
          sink.clear();
          backend->process_block(input, sink);
        },
        cycle_sim ? 0.1 : 0.3);
    JsonLine j;
    j.field("bench", std::string("throughput_pipeline"))
        .field("backend", backend->name())
        .field("plan", plan.name)
        .field("block_msamples_per_s", t.msamples_per_s())
        .field("block_samples", input.size())
        .field("simd", twiddc::simd::active_path());
    twiddc::benchutil::emit("backend:" + backend->name(), j);
  }
}

// ------------------------------------------------------- multi-channel bank

void bench_channel_bank() {
  const auto cfg = DdcConfig::reference(10.0e6);
  const auto spec = DatapathSpec::wide16();
  // Larger blocks than the single-chain bench: realistic batch serving
  // hands the bank multi-millisecond chunks.
  const auto input = figure1_stimulus(cfg, 2688 * 64);

  double single_rate = 0.0;
  for (std::size_t channels : {1u, 2u, 4u, 8u, 64u}) {
    std::vector<ChainPlan> plans;
    for (std::size_t c = 0; c < channels; ++c) {
      // Slightly detuned per-channel NCOs, GC4016-style multi-carrier use.
      auto ch_cfg = cfg;
      ch_cfg.nco_freq_hz = cfg.nco_freq_hz + 25.0e3 * static_cast<double>(c);
      plans.push_back(ChainPlan::figure1(ch_cfg, spec));
    }
    ChannelBank bank(plans);
    std::vector<std::vector<IqSample>> planar;
    const std::size_t channel_samples = input.size() * channels;
    const Throughput t = measure_throughput(channel_samples, [&] {
      for (auto& p : planar) p.clear();
      bank.process_block(input, planar);
    });
    if (channels == 1) single_rate = t.msamples_per_s();
    twiddc::benchutil::emit(
        "channel_bank:figure1",
        twiddc::benchutil::channel_bank_json("throughput_pipeline",
                                             "channel_bank:figure1", channels, t,
                                             single_rate, input.size())
            .field("simd", twiddc::simd::active_path()));
  }
}

// ------------------------------------------------------- streaming engine
//
// End-to-end serving rate of the stream layer: one shared feed, N concurrent
// figure-1 sessions on the native backend, pumped through the session
// engine's rings and worker pool and drained by this thread.  The aggregate
// is channel-samples/s (sessions x feed samples / wall clock), so the line
// tracks serving scale -- rings, fan-out, scheduling included -- not just
// kernel speed.

void bench_stream_sessions() {
  twiddc::backends::register_builtin();
  const auto cfg = DdcConfig::reference(10.0e6);
  const auto spec = DatapathSpec::wide16();
  const auto feed = figure1_stimulus(cfg, 2688 * 64);
  const int hw = static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));

  double single_rate = 0.0;
  // 256 sessions is the scheduler-era acceptance point: sessions far
  // outnumber workers, so the line tracks admission/fairness overhead and
  // run-queue scaling, not just kernel speed.
  for (const std::size_t sessions : {1u, 4u, 16u, 64u, 256u}) {
    twiddc::stream::EngineOptions opts;
    opts.workers = hw;
    opts.block_samples = 4096;
    twiddc::stream::StreamEngine engine(
        std::make_unique<twiddc::stream::VectorSource>(feed), opts);
    std::vector<std::shared_ptr<twiddc::stream::Session>> open;
    for (std::size_t s = 0; s < sessions; ++s) {
      auto ch_cfg = cfg;
      ch_cfg.nco_freq_hz = cfg.nco_freq_hz + 25.0e3 * static_cast<double>(s);
      open.push_back(engine.open(twiddc::core::ChainPlan::figure1(ch_cfg, spec),
                                 twiddc::backends::kNative));
    }
    const auto start = std::chrono::steady_clock::now();
    engine.start();
    const auto chunks = twiddc::stream::drain_all(engine, open);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    engine.stop();
    const double aggregate =
        static_cast<double>(feed.size() * sessions) / elapsed / 1e6;
    if (sessions == 1) single_rate = aggregate;
    JsonLine j;
    j.field("bench", std::string("throughput_pipeline"))
        .field("chain", std::string("stream_engine:figure1"))
        .field("sessions", sessions)
        .field("workers", static_cast<std::size_t>(hw))
        .field("workers_effective", static_cast<std::size_t>(engine.options().workers))
        .field("block_samples", opts.block_samples)
        .field("aggregate_msamples_per_s", aggregate)
        .field("scaling_vs_single", single_rate > 0.0 ? aggregate / single_rate : 0.0)
        .field("chunks", chunks.front().size())
        .field("simd", twiddc::simd::active_path());
    twiddc::benchutil::emit("stream_engine:figure1", j);
  }
}

// ---------------------------------------------------- overload / shedding
//
// Survivor tail latency at 2x oversubscription: `hw` weight-4 sessions are
// actively drained (the survivors) while `hw` weight-1 sessions are paused
// dead clients whose kBlock input rings fill and park the pump -- the
// overload the watchdog's shedding exists to break.  The same setup runs
// with shedding off and on; the probe is the p99 inter-chunk arrival gap
// pooled across survivors (LatencyRecorder, tail gap included, so a stalled
// survivor's silence is charged to the distribution).  With shedding off
// the survivors starve behind the parked pump; with it on the watchdog
// discards the victims' backlogs (GapCause::kShed in their streams) and the
// survivors keep flowing.

/// Records per-session inter-chunk arrival gaps instead of payloads -- the
/// probe for "did my stream keep flowing while others were shed".
/// Timestamps are taken at delivery (the polling thread), so a gap covers
/// the whole path: pump -> ring -> worker -> output ring -> poll.
///
/// Gaps go into a metrics::Histogram (microsecond buckets) instead of an
/// unbounded vector, so memory stays constant however long the run -- a
/// quantile is a bucket upper bound, exact to ~12.5% (see metrics.hpp).
class LatencyRecorder {
 public:
  void on_chunk(std::uint64_t session_id, const twiddc::stream::StreamChunk& chunk) {
    const auto now = std::chrono::steady_clock::now();
    auto& rec = records_[session_id];
    if (rec.chunks > 0) record_gap(rec, now);
    rec.last = now;
    rec.chunks++;
    rec.samples += chunk.iq.size();
  }

  [[nodiscard]] std::uint64_t chunks(std::uint64_t session_id) const {
    const auto it = records_.find(session_id);
    return it == records_.end() ? 0 : it->second.chunks;
  }
  [[nodiscard]] std::uint64_t samples(std::uint64_t session_id) const {
    const auto it = records_.find(session_id);
    return it == records_.end() ? 0 : it->second.samples;
  }

  /// Appends the still-open tail gap (now minus last arrival) of every
  /// session that delivered at least one chunk.  Call once when a fixed
  /// measurement window closes, so a stream that stalled mid-window charges
  /// its silence to the latency distribution instead of it vanishing.
  void close_window() {
    const auto now = std::chrono::steady_clock::now();
    for (auto& [id, rec] : records_) {
      if (rec.chunks == 0) continue;
      record_gap(rec, now);
      rec.last = now;
    }
  }

  /// p-quantile (0..1) of inter-chunk gaps pooled across `session_ids`;
  /// 0.0 when fewer than two chunks arrived anywhere.
  [[nodiscard]] double gap_quantile_ms(const std::vector<std::uint64_t>& session_ids,
                                       double p) const {
    twiddc::metrics::HistogramSnapshot pool;
    for (const std::uint64_t id : session_ids) {
      const auto it = records_.find(id);
      if (it != records_.end()) pool.add(it->second.gaps_us.snapshot());
    }
    return static_cast<double>(pool.quantile(p)) * 1e-3;
  }

 private:
  struct Record {
    std::chrono::steady_clock::time_point last{};
    std::uint64_t chunks = 0;
    std::uint64_t samples = 0;
    twiddc::metrics::Histogram gaps_us;
  };

  static void record_gap(Record& rec, std::chrono::steady_clock::time_point now) {
    rec.gaps_us.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - rec.last)
            .count()));
  }

  std::map<std::uint64_t, Record> records_;
};

void bench_stream_overload() {
  twiddc::backends::register_builtin();
  const auto cfg = DdcConfig::reference(10.0e6);
  const auto spec = DatapathSpec::wide16();
  const int hw = static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
  constexpr std::chrono::milliseconds kWindow{300};

  for (const bool shed : {false, true}) {
    twiddc::stream::EngineOptions opts;
    opts.workers = hw;
    opts.block_samples = 4096;
    opts.session_queue_blocks = 4;
    opts.watchdog_interval_us = 500;
    opts.shed_enabled = shed;
    opts.shed_pump_stall_ms = 5;
    opts.shed_queue_fraction = 0.5;
    twiddc::stream::StreamEngine engine(
        std::make_unique<twiddc::stream::ToneSource>(10.0025e6, cfg.input_rate_hz,
                                                     12, 0.7),
        opts);

    std::vector<std::shared_ptr<twiddc::stream::Session>> survivors;
    for (int s = 0; s < 2 * hw; ++s) {
      auto ch_cfg = cfg;
      ch_cfg.nco_freq_hz = cfg.nco_freq_hz + 25.0e3 * static_cast<double>(s);
      auto session = engine.open(twiddc::core::ChainPlan::figure1(ch_cfg, spec),
                                 twiddc::backends::kNative);
      if (s < hw) {
        session->set_weight(4);
        survivors.push_back(std::move(session));
      } else {
        session->set_weight(1);
        session->set_paused(true);  // dead client: never polls, ring fills
      }
    }

    LatencyRecorder recorder;
    engine.start();
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 < kWindow) {
      for (const auto& s : survivors)
        for (auto& chunk : s->poll())
          recorder.on_chunk(s->id(), chunk);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    recorder.close_window();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    engine.stop();

    std::vector<std::uint64_t> ids;
    std::uint64_t survivor_chunks = 0;
    std::uint64_t survivor_samples = 0;
    for (const auto& s : survivors) {
      ids.push_back(s->id());
      survivor_chunks += recorder.chunks(s->id());
      survivor_samples += recorder.samples(s->id());
    }
    JsonLine j;
    j.field("bench", std::string("throughput_pipeline"))
        .field("chain", std::string("stream_engine:overload"))
        .field("shed", shed)
        .field("sessions", static_cast<std::size_t>(2 * hw))
        .field("workers", static_cast<std::size_t>(hw))
        .field("workers_effective", static_cast<std::size_t>(engine.options().workers))
        .field("block_samples", opts.block_samples)
        .field("window_ms", static_cast<std::size_t>(kWindow.count()))
        .field("survivor_p50_gap_ms", recorder.gap_quantile_ms(ids, 0.50))
        .field("survivor_p99_gap_ms", recorder.gap_quantile_ms(ids, 0.99))
        .field("survivor_chunks", static_cast<std::size_t>(survivor_chunks))
        .field("survivor_ksamples_per_s",
               elapsed > 0.0 ? static_cast<double>(survivor_samples) / elapsed / 1e3
                             : 0.0)
        .field("shed_events", static_cast<std::size_t>(engine.shed_events()))
        .field("shed_blocks", static_cast<std::size_t>(engine.shed_blocks()))
        .field("simd", twiddc::simd::active_path());
    twiddc::benchutil::emit("stream_engine:overload", j);
  }
}

// -------------------------------------------------------------- trace cost
//
// Runtime tracing overhead on the serving path: the identical N-session
// end-to-end run with every trace category enabled vs the runtime kill
// switch (mask 0).  The disabled number is what production pays for having
// trace sites compiled in; the CI overhead gate compares it against a
// TWIDDC_TRACE_COMPILED=OFF build's stream_engine:figure1 line instead --
// this line tracks the cost of *recording*.
//   {"bench": "throughput_pipeline", "chain": "stream_engine:trace",
//    "disabled_msamples_per_s": ..., "enabled_msamples_per_s": ...,
//    "enabled_overhead_pct": ..., "traced_events": ...}

void bench_stream_trace_overhead() {
  twiddc::backends::register_builtin();
  const auto cfg = DdcConfig::reference(10.0e6);
  const auto spec = DatapathSpec::wide16();
  const auto feed = figure1_stimulus(cfg, 2688 * 64);
  const int hw = static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
  constexpr std::size_t kSessions = 16;

  const std::uint32_t saved_mask = twiddc::trace::enabled_mask();
  double rate[2] = {0.0, 0.0};
  std::size_t traced_events = 0;
  std::uint64_t traced_drops = 0;
  for (const bool tracing : {false, true}) {
    twiddc::trace::set_enabled(tracing ? twiddc::trace::kAllCategories : 0);
    twiddc::stream::EngineOptions opts;
    opts.workers = hw;
    opts.block_samples = 4096;
    twiddc::stream::StreamEngine engine(
        std::make_unique<twiddc::stream::VectorSource>(feed), opts);
    std::vector<std::shared_ptr<twiddc::stream::Session>> open;
    for (std::size_t s = 0; s < kSessions; ++s) {
      auto ch_cfg = cfg;
      ch_cfg.nco_freq_hz = cfg.nco_freq_hz + 25.0e3 * static_cast<double>(s);
      open.push_back(engine.open(twiddc::core::ChainPlan::figure1(ch_cfg, spec),
                                 twiddc::backends::kNative));
    }
    const auto start = std::chrono::steady_clock::now();
    engine.start();
    (void)twiddc::stream::drain_all(engine, open);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    engine.stop();
    rate[tracing ? 1 : 0] =
        static_cast<double>(feed.size() * kSessions) / elapsed / 1e6;
    if (tracing) {
      const auto snap = twiddc::trace::snapshot();
      traced_events = snap.events.size();
      traced_drops = snap.dropped;
    }
  }
  twiddc::trace::set_enabled(saved_mask);
  twiddc::trace::reset();

  JsonLine j;
  j.field("bench", std::string("throughput_pipeline"))
      .field("chain", std::string("stream_engine:trace"))
      .field("sessions", kSessions)
      .field("workers", static_cast<std::size_t>(hw))
      .field("block_samples", static_cast<std::size_t>(4096))
      .field("disabled_msamples_per_s", rate[0])
      .field("enabled_msamples_per_s", rate[1])
      .field("enabled_overhead_pct",
             rate[0] > 0.0 ? 100.0 * (1.0 - rate[1] / rate[0]) : 0.0)
      .field("traced_events", traced_events)
      .field("traced_drops", static_cast<std::size_t>(traced_drops))
      .field("trace_compiled", TWIDDC_TRACE_COMPILED_MASK != 0u)
      .field("simd", twiddc::simd::active_path());
  twiddc::benchutil::emit("stream_engine:trace", j);
}

/// TWIDDC_BENCH_ONLY: comma-separated substrings; a bench runs when any of
/// them appears in its name (unset/empty = run everything).  The CI overhead
/// gate uses it to run just the stream_engine lines on both trace builds.
bool bench_selected(const std::string& name) {
  const char* only = std::getenv("TWIDDC_BENCH_ONLY");
  if (!only || !*only) return true;
  const std::string spec(only);
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string part =
        spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!part.empty() && name.find(part) != std::string::npos) return true;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  twiddc::benchutil::init_out(argc, argv);
  std::printf("# throughput_pipeline: block process_block() vs per-sample push()\n");
  std::printf("# one JSON object per line; speedup_block_over_push is the headline\n");
  std::printf("# kernel lines give block rates per vectorised kernel; channel_bank\n");
  std::printf("# lines give multi-channel aggregate (channel-samples/s) scaling\n");
  const struct {
    const char* name;
    void (*fn)();
  } kBenches[] = {
      {"figure1:wide16", [] { bench_figure1(DatapathSpec::wide16()); }},
      {"figure1:fpga", [] { bench_figure1(DatapathSpec::fpga()); }},
      {"figure1:fused_vs_staged", bench_fused_vs_staged},
      {"plan_cache", bench_plan_cache},
      {"gc4016:figure4", bench_gc4016},
      {"kernel:nco_mixer", bench_kernel_nco_mixer},
      {"kernel:cic2", [] { bench_kernel_cic("cic2", 2, 16); }},
      {"kernel:cic5", [] { bench_kernel_cic("cic5", 5, 21); }},
      {"kernel:fir125", bench_kernel_fir125},
      {"backends", bench_backends},
      {"channel_bank:figure1", bench_channel_bank},
      {"stream_engine:figure1", bench_stream_sessions},
      {"stream_engine:overload", bench_stream_overload},
      {"stream_engine:trace", bench_stream_trace_overhead},
  };
  for (const auto& b : kBenches)
    if (bench_selected(b.name)) b.fn();
  return 0;
}
