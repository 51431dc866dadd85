// The "millions of users" direction, scaled to an example: one wideband
// antenna feed served to many concurrent DDC sessions by the streaming
// session engine, with the paper's architectural heterogeneity live on one
// platform -- the same samples simultaneously drive the SIMD native
// pipeline, the FixedDdc twin, the float rails and a GC4016 channel, each
// behind its own per-session rings and backpressure policy.
//
// The run demonstrates the serving features end to end:
//   * N concurrent sessions from one shared feed (zero-copy fan-out),
//   * a mid-stream retune() (phase-continuous kSplice on a live session),
//   * a kDropOldest session shedding load while paused (a stalled user),
//   * per-session stats exported as JSON.
//
//   $ ./streaming_server [sessions] [feed_frames]
//
// Tracing: TWIDDC_TRACE=sched,stream,cache (or "all") records the
// run and writes streaming_server.trace.json at exit -- load it in
// https://ui.perfetto.dev or chrome://tracing.  TWIDDC_TRACE_FILE
// overrides the output path.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/backends/builtin.hpp"
#include "src/common/trace.hpp"
#include "src/core/backend.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/stream/engine.hpp"
#include "src/stream/source.hpp"

int main(int argc, char** argv) {
  using namespace twiddc;

  const int n_sessions = argc > 1 ? std::atoi(argv[1]) : 20;
  const int frames = argc > 2 ? std::atoi(argv[2]) : 8;

  backends::register_builtin();
  const auto cfg = core::DdcConfig::reference(10.0e6);
  const auto spec = core::DatapathSpec::wide16();

  // One shared wideband feed: a tone synthesised on the fly, as if from the
  // AD converter.  2688 input samples = one output frame of the reference
  // Figure 1 chain.
  const auto total = static_cast<std::uint64_t>(frames) * 2688u;
  stream::EngineOptions opts;
  opts.workers = 4;
  opts.block_samples = 2048;
  // This demo deliberately delays polling until the feed has run dry (to
  // stage the stalled-user scene below), so the kBlock output rings must
  // hold the whole run -- a real server polls continuously instead and
  // keeps the default ring size.
  opts.session_output_chunks = static_cast<std::size_t>(total / opts.block_samples) + 8;
  stream::StreamEngine engine(
      std::make_unique<stream::ToneSource>(10.0025e6, cfg.input_rate_hz, 12, 0.7,
                                           total),
      opts);

  // Spread the sessions across whatever functional + ASIC backends are
  // registered, each user on its own carrier (detuned NCO).
  const std::vector<std::string> carriers = {backends::kNative, backends::kFixedDdc,
                                             backends::kFloatDdc};
  std::vector<std::shared_ptr<stream::Session>> sessions;
  for (int s = 0; s < n_sessions; ++s) {
    auto user_cfg = cfg;
    user_cfg.nco_freq_hz = cfg.nco_freq_hz + 20.0e3 * s;
    const auto& backend = carriers[static_cast<std::size_t>(s) % carriers.size()];
    sessions.push_back(engine.open(core::ChainPlan::figure1(user_cfg, spec), backend));
  }
  {
    // One hardware user: a GC4016 chip slot on its own lowering, shedding
    // load instead of stalling the feed when its consumer lags.  Paused
    // here to simulate the lagging consumer: its input ring fills and the
    // pump evicts the oldest blocks rather than throttling everyone.
    auto probe = core::BackendRegistry::instance().create(backends::kGc4016);
    sessions.push_back(engine.open(probe->plan_for(cfg), backends::kGc4016,
                                   stream::BackpressurePolicy::kDropOldest));
    sessions.back()->set_paused(true);
  }
  std::printf("serving %zu sessions from one %d-frame feed (block_samples=%zu, workers=%d)\n",
              sessions.size(), frames, opts.block_samples, opts.workers);

  engine.start();

  // A user retunes mid-stream: phase-continuous splice, no output gap.
  sessions[0]->retune(
      core::ChainPlan::figure1(core::DdcConfig::reference(10.06e6), spec),
      core::SwapMode::kSplice);

  // Let the stalled GC4016 user shed the early feed, then resume it once
  // the source has run dry and drain everyone.
  while (!engine.feed_exhausted())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  sessions.back()->set_paused(false);

  stream::drain_all(engine, sessions);
  engine.stop();

  const auto shed = sessions.back()->stats();
  std::printf("stalled GC4016 user shed %llu blocks (%llu samples); its next "
              "chunk carries the gap marker\n",
              static_cast<unsigned long long>(shed.input_drop_blocks),
              static_cast<unsigned long long>(shed.input_drop_samples));

  std::uint64_t total_out = 0;
  for (const auto& s : sessions) total_out += s->stats().samples_out;
  std::printf("feed exhausted after %llu blocks; %llu IQ samples served\n",
              static_cast<unsigned long long>(engine.blocks_pumped()),
              static_cast<unsigned long long>(total_out));
  std::printf("session 0 retunes applied: %llu (splice: gap-free)\n",
              static_cast<unsigned long long>(sessions[0]->stats().retunes_applied));

  std::printf("\nper-session stats JSON:\n%s\n", engine.stats_json().c_str());

  // $TWIDDC_TRACE was applied at load time; if any category is on, export
  // the whole run as a Chrome trace.
  if (trace::enabled_mask() != 0) {
    const char* path_env = std::getenv("TWIDDC_TRACE_FILE");
    const std::string path = path_env ? path_env : "streaming_server.trace.json";
    if (trace::write_chrome_trace(path))
      std::printf("trace written to %s (%llu events dropped)\n", path.c_str(),
                  static_cast<unsigned long long>(trace::snapshot().dropped));
    else
      std::fprintf(stderr, "trace export to %s failed\n", path.c_str());
  }
  return 0;
}
