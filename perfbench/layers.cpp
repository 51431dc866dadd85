// Single-threaded per-layer probes: each times the benchmark's own calls into
// one layer's public functions on blocks of the workload's feed.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "src/backends/builtin.hpp"
#include "src/common/rng.hpp"
#include "src/core/plan_compiler.hpp"
#include "src/dsp/cic.hpp"
#include "src/dsp/fir.hpp"
#include "src/gpp/ddc_program.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kProbeBlocks = 64;
constexpr double kProbeSeconds = 0.2;  ///< minimum timed span per repetition
constexpr int kReps = 3;               ///< repetitions; the median is reported

/// Median over kReps of (seconds per call of `fn`), each repetition calling
/// `fn` until at least kProbeSeconds have passed.
template <typename Fn>
double seconds_per_call(Fn&& fn) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    std::uint64_t calls = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t = t0;
    do {
      fn();
      ++calls;
      t = now_ns();
    } while (t - t0 < static_cast<std::int64_t>(kProbeSeconds * 1e9));
    reps.push_back(1e-9 * static_cast<double>(t - t0) / static_cast<double>(calls));
  }
  return median(reps);
}

const core::ChainPlan& native_plan(const Workload& w) {
  for (const auto& s : w.sessions)
    if (s.backend == twiddc::backends::kNative) return s.plan;
  throw std::runtime_error("workload has no native-pipeline session");
}

/// Runs one block through the front end and each rail stage of `pipe`,
/// driven through DdcPipeline's public hooks; returns ns per part.
struct StageTimes {
  double mixer = 0, cic2 = 0, cic5 = 0, fir = 0;
};

struct StageDriver {
  core::DdcPipeline& pipe;
  std::vector<std::int32_t> cos, sin;
  std::vector<std::int64_t> mix[2], a[2], b[2], c[2];

  explicit StageDriver(core::DdcPipeline& p) : pipe(p) {}

  void run(std::span<const std::int64_t> x, StageTimes* t) {
    const std::size_t n = x.size();
    cos.resize(n);
    sin.resize(n);
    for (auto& m : mix) m.resize(n);
    const std::int64_t t0 = now_ns();
    pipe.nco().next_block(cos, sin);
    pipe.mixer().mix_block(x, cos, sin, mix[0], mix[1]);
    const std::int64_t t1 = now_ns();
    for (int r = 0; r < 2; ++r) {
      a[r].clear();
      pipe.rail(r).stage(0).process_block(mix[r], a[r]);
    }
    const std::int64_t t2 = now_ns();
    for (int r = 0; r < 2; ++r) {
      b[r].clear();
      pipe.rail(r).stage(1).process_block(a[r], b[r]);
    }
    const std::int64_t t3 = now_ns();
    for (int r = 0; r < 2; ++r) {
      c[r].clear();
      pipe.rail(r).stage(2).process_block(b[r], c[r]);
    }
    const std::int64_t t4 = now_ns();
    if (t) {
      t->mixer += static_cast<double>(t1 - t0);
      t->cic2 += static_cast<double>(t2 - t1);
      t->cic5 += static_cast<double>(t3 - t2);
      t->fir += static_cast<double>(t4 - t3);
    }
  }
};

void print_arm_comparison(const Workload& w, const Feed& feed, const StageTimes& host) {
  // Table 3's simulated ARM profile of the same rate plan on the same feed.
  const twiddc::gpp::DdcProgram prog(w.config);
  std::vector<std::int64_t> in(2688 * 50);
  feed.fill(0, in);
  const auto result = prog.run(in);
  std::map<std::string, double> arm;
  for (const auto& region : result.stats.regions) {
    const std::string& n = region.name;
    const std::string part = n == "NCO"                    ? "mixer"
                             : n.rfind("CIC2", 0) == 0     ? "cic2"
                             : n.rfind("CIC5", 0) == 0     ? "cic5"
                             : n.rfind("FIR125", 0) == 0   ? "fir"
                                                           : "other";
    arm[part] += region.cycle_share;
  }
  const std::map<std::string, double> paper = {
      {"mixer", 0.50}, {"cic2", 0.432}, {"cic5", 0.049}, {"fir", 0.021}};
  const double total = host.mixer + host.cic2 + host.cic5 + host.fir;
  const std::map<std::string, double> ours = {{"mixer", host.mixer / total},
                                              {"cic2", host.cic2 / total},
                                              {"cic5", host.cic5 / total},
                                              {"fir", host.fir / total}};
  std::printf("per-function cost, host (core.stage.*.share, I+Q rails) vs Table 3 ARM:\n");
  std::printf("  %-6s %12s %14s %12s\n", "part", "host share", "ARM simulated", "ARM paper");
  for (const char* part : {"mixer", "cic2", "cic5", "fir"})
    std::printf("  %-6s %11.2f%% %13.2f%% %11.2f%%\n", part, 100.0 * ours.at(part),
                100.0 * arm[part], 100.0 * paper.at(part));
  std::printf("  (ARM rows fold NCO+mixing, integrating+cascading, poly-phase+summation;"
              " %.2f%% of ARM cycles are loop control)\n",
              100.0 * arm["other"]);
}

}  // namespace

std::vector<Metric> layer_metrics(const Workload& w, const Feed& feed, std::uint64_t seed) {
  std::vector<Metric> m;
  std::vector<std::int64_t> in(kProbeBlocks * kBlockSamples);
  feed.fill(0, in);
  auto block = [&](std::size_t k) {
    return std::span<const std::int64_t>(in).subspan((k % kProbeBlocks) * kBlockSamples,
                                                     kBlockSamples);
  };
  const core::ChainPlan& plan = native_plan(w);

  // ---- core: stage by stage through DdcPipeline's hooks (also captures each
  // stage's real input for the kernel probes below).
  core::DdcPipeline staged_hooks(plan);
  StageDriver driver(staged_hooks);
  std::vector<std::int64_t> mix_i, cic2_out, cic5_out;
  for (std::size_t k = 0; k < kProbeBlocks; ++k) {
    driver.run(block(k), nullptr);
    mix_i.insert(mix_i.end(), driver.mix[0].begin(), driver.mix[0].end());
    cic2_out.insert(cic2_out.end(), driver.a[0].begin(), driver.a[0].end());
    cic5_out.insert(cic5_out.end(), driver.b[0].begin(), driver.b[0].end());
  }
  StageTimes host;
  std::size_t k = 0;
  seconds_per_call([&] { driver.run(block(k++), &host); });
  const double total = host.mixer + host.cic2 + host.cic5 + host.fir;
  m.push_back({"core.stage.mixer.share", host.mixer / total, "fraction"});
  m.push_back({"core.stage.cic2.share", host.cic2 / total, "fraction"});
  m.push_back({"core.stage.cic5.share", host.cic5 / total, "fraction"});
  m.push_back({"core.stage.fir.share", host.fir / total, "fraction"});
  print_arm_comparison(w, feed, host);

  // ---- dsp: the raw kernels, configured as the pipeline configures them.
  {
    twiddc::dsp::Nco nco(staged_hooks.nco().config());
    const twiddc::dsp::ComplexMixer mixer(staged_hooks.mixer().config());
    std::vector<std::int32_t> c(kBlockSamples), s(kBlockSamples);
    std::vector<std::int64_t> i(kBlockSamples), q(kBlockSamples);
    k = 0;
    const double t = seconds_per_call([&] {
      nco.next_block(c, s);
      mixer.mix_block(block(k++), c, s, i, q);
    });
    m.push_back({"dsp.nco_mixer.ns_per_sample", 1e9 * t / kBlockSamples, "ns"});
  }
  auto cic_probe = [&](std::size_t stage, const std::vector<std::int64_t>& x) {
    twiddc::dsp::CicDecimator cic(staged_hooks.rail(0).stage(stage).cic_kernel()->config());
    std::vector<std::int64_t> out;
    const double t = seconds_per_call([&] {
      out.clear();
      cic.process_block(x, out);
    });
    return 1e9 * t / static_cast<double>(x.size());
  };
  m.push_back({"dsp.cic2.ns_per_sample", cic_probe(0, mix_i), "ns"});
  m.push_back({"dsp.cic5.ns_per_sample", cic_probe(1, cic2_out), "ns"});
  {
    const auto& fir_spec = plan.stages.at(2);
    twiddc::dsp::PolyphaseFirDecimator<std::int64_t> fir(fir_spec.taps, fir_spec.decimation);
    std::vector<std::int64_t> out;
    const double t = seconds_per_call([&] {
      out.clear();
      fir.process_block(cic5_out, out);
    });
    m.push_back({"dsp.fir125.ns_per_sample", 1e9 * t / static_cast<double>(cic5_out.size()),
                 "ns"});
  }

  // ---- core: the two executors of one plan.
  {
    core::DdcPipeline pipe(plan);
    core::FusedChainExec fused(core::CompiledPlanCache::instance().get_or_compile(plan));
    std::vector<core::IqSample> out;
    k = 0;
    const double staged = seconds_per_call([&] {
      out.clear();
      pipe.process_block(block(k++), out);
    });
    k = 0;
    const double fast = seconds_per_call([&] {
      out.clear();
      fused.process_block(block(k++), out);
    });
    m.push_back({"core.staged.msps", kBlockSamples / staged / 1e6, "MS/s"});
    m.push_back({"core.fused.msps", kBlockSamples / fast / 1e6, "MS/s"});
  }

  // ---- core: the compiled-plan cache, a miss (fresh NCO word) and a hit.
  {
    auto& cache = core::CompiledPlanCache::instance();
    twiddc::Rng rng(seed ^ 0xcac4e5eedull);
    std::vector<double> compile_ms, hit_us;
    for (int j = 0; j < 20; ++j) {
      auto fresh = plan;
      fresh.front_end.nco_freq_hz = rng.uniform(1.0e6, 30.0e6);
      const std::int64_t t0 = now_ns();
      cache.get_or_compile(fresh);
      compile_ms.push_back(1e-6 * static_cast<double>(now_ns() - t0));
    }
    cache.get_or_compile(plan);
    for (int j = 0; j < 2000; ++j) {
      const std::int64_t t0 = now_ns();
      cache.get_or_compile(plan);
      hit_us.push_back(1e-3 * static_cast<double>(now_ns() - t0));
    }
    m.push_back({"core.plan_cache.compile_ms", median(compile_ms), "ms"});
    m.push_back({"core.plan_cache.hit_us", median(hit_us), "us"});
  }

  // ---- backends: each registered backend inline on its own lowering.
  for (const auto& name : {twiddc::backends::kNative, twiddc::backends::kFixedDdc,
                           twiddc::backends::kFloatDdc, twiddc::backends::kGc4016,
                           twiddc::backends::kFpga, twiddc::backends::kGpp,
                           twiddc::backends::kMontium}) {
    auto backend = core::BackendRegistry::instance().create(name);
    backend->configure(backend->plan_for(w.config));
    std::vector<core::IqSample> out;
    k = 0;
    const double t = seconds_per_call([&] {
      out.clear();
      backend->process_block(block(k++), out);
    });
    m.push_back({std::string("backend.") + name + ".msps", kBlockSamples / t / 1e6, "MS/s"});
  }

  // ---- the single-threaded baseline: the workload's sessions back to back.
  {
    std::vector<std::unique_ptr<core::ArchitectureBackend>> all;
    for (const auto& s : w.sessions) {
      all.push_back(core::BackendRegistry::instance().create(s.backend));
      all.back()->configure(s.plan);
    }
    std::vector<core::IqSample> out;
    k = 0;
    const double t = seconds_per_call([&] {
      const auto x = block(k++);
      for (auto& b : all) {
        out.clear();
        b->process_block(x, out);
      }
    });
    m.push_back({"baseline.inline_msps",
                 static_cast<double>(all.size() * kBlockSamples) / t / 1e6, "MS/s"});
  }
  return m;
}

}  // namespace perfbench
