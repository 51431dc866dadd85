// Shared helpers for the per-table/per-figure bench binaries.
//
// Every binary prints its paper artifact (the "paper" column verbatim from
// the PDF next to the value this reproduction measures), then runs
// google-benchmark timings for the kernels involved.
#pragma once

#include <benchmark/benchmark.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/common/json.hpp"
#include "src/common/table.hpp"

namespace twiddc::benchutil {

inline void heading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void note(const std::string& text) { std::printf("%s\n", text.c_str()); }

inline void print_table(const TextTable& t) { std::printf("%s", t.str().c_str()); }

/// Formats a reproduced-vs-paper pair with relative deviation.
inline std::string vs(double ours, double paper, int digits = 2) {
  const double dev = paper != 0.0 ? 100.0 * (ours - paper) / paper : 0.0;
  return TextTable::num(ours, digits) + " (paper " + TextTable::num(paper, digits) +
         ", " + (dev >= 0 ? "+" : "") + TextTable::num(dev, 1) + "%)";
}

// ------------------------------------------------- throughput measurement
//
// Wall-clock sample-throughput helpers for the block-vs-per-sample hot-path
// comparisons (bench/throughput_pipeline.cpp and future perf-trajectory
// benches).

/// One throughput measurement: `samples` input samples in `seconds`.
struct Throughput {
  std::size_t samples = 0;
  double seconds = 0.0;
  [[nodiscard]] double msamples_per_s() const {
    return seconds > 0.0 ? static_cast<double>(samples) / seconds / 1e6 : 0.0;
  }
};

/// Runs `body` (which must consume `samples_per_rep` input samples per call)
/// repeatedly until at least `min_seconds` of wall clock have elapsed, after
/// one untimed warm-up call.
template <typename F>
Throughput measure_throughput(std::size_t samples_per_rep, F&& body,
                              double min_seconds = 0.3) {
  using clock = std::chrono::steady_clock;
  body();  // warm-up: page in buffers, settle the branch predictors
  Throughput t;
  const auto start = clock::now();
  do {
    body();
    t.samples += samples_per_rep;
    t.seconds = std::chrono::duration<double>(clock::now() - start).count();
  } while (t.seconds < min_seconds);
  return t;
}

/// The shared one-line JSON writer (src/common/json.hpp), re-exported under
/// the historical benchutil name.
using twiddc::JsonLine;

/// Formats a block-vs-push throughput pair as one JSON line.
inline JsonLine throughput_json(const std::string& bench, const std::string& chain,
                                const Throughput& push, const Throughput& block,
                                std::size_t block_samples) {
  JsonLine j;
  j.field("bench", bench)
      .field("chain", chain)
      .field("push_msamples_per_s", push.msamples_per_s())
      .field("block_msamples_per_s", block.msamples_per_s())
      .field("speedup_block_over_push",
             block.msamples_per_s() / push.msamples_per_s())
      .field("block_samples", block_samples);
  return j;
}

/// One kernel's block throughput (cic/fir/nco...) as a JSON line.  The keys
/// are additive to the schema above: existing consumers keyed on "chain"
/// ignore "kernel" lines and vice versa.
inline JsonLine kernel_json(const std::string& bench, const std::string& kernel,
                            const Throughput& block, std::size_t block_samples) {
  JsonLine j;
  j.field("bench", bench)
      .field("kernel", kernel)
      .field("block_msamples_per_s", block.msamples_per_s())
      .field("block_samples", block_samples);
  return j;
}

/// A multi-channel batch measurement: `aggregate` counts channel-samples
/// (inputs x channels) per second; `scaling_vs_single` is aggregate relative
/// to the measured one-channel rate.  The bank is single-threaded; the
/// "workers": 1 key stays so the trajectory lines up with older records.
inline JsonLine channel_bank_json(const std::string& bench, const std::string& chain,
                                  std::size_t channels,
                                  const Throughput& aggregate,
                                  double single_channel_msamples_per_s,
                                  std::size_t block_samples) {
  JsonLine j;
  j.field("bench", bench)
      .field("chain", chain)
      .field("channels", channels)
      .field("workers", std::size_t{1})
      .field("aggregate_msamples_per_s", aggregate.msamples_per_s())
      .field("per_channel_msamples_per_s",
             aggregate.msamples_per_s() / static_cast<double>(channels))
      .field("scaling_vs_single", aggregate.msamples_per_s() /
                                      single_channel_msamples_per_s)
      .field("block_samples", block_samples);
  return j;
}

// ------------------------------------------------------- record trajectory
//
// Machine-readable record tee.  Stdout keeps the bare one-JSON-object-per-
// line format the existing trajectory consumers parse; when an output file
// is configured (--out FILE or --out=FILE on the command line, else the
// TWIDDC_BENCH_OUT environment variable), every emitted record is ALSO
// appended to FILE as
//   BENCH_<name>.json {"bench": ..., ...}
// with <name> sanitised to [A-Za-z0-9_] so the tag doubles as a filename-
// safe key.  Append mode on purpose: successive bench invocations (CI runs,
// tier sweeps under different TWIDDC_* knobs) accumulate into one
// trajectory log instead of clobbering each other.

/// The configured record file path ("" = stdout only).
inline std::string& out_path() {
  static std::string path;
  return path;
}

/// Parses --out FILE / --out=FILE, falling back to TWIDDC_BENCH_OUT.  Call
/// once from main before emitting records (run() below does it for the
/// report+benchmark binaries).
inline void init_out(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path() = argv[++i];
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path() = arg.substr(6);
    }
  }
  if (out_path().empty()) {
    if (const char* env = std::getenv("TWIDDC_BENCH_OUT"); env && *env)
      out_path() = env;
  }
}

/// Prints the record to stdout (bare JSON line, unchanged format) and, when
/// an out file is configured, appends the tagged BENCH_<name>.json record.
inline void emit(const std::string& name, const JsonLine& j) {
  j.print();
  if (out_path().empty()) return;
  std::string tag;
  tag.reserve(name.size());
  for (const char c : name)
    tag += (std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c : '_';
  if (std::FILE* f = std::fopen(out_path().c_str(), "a")) {
    std::fprintf(f, "BENCH_%s.json %s\n", tag.c_str(), j.str().c_str());
    std::fclose(f);
  }
}

/// Standard main body: print the report, then run registered benchmarks.
inline int run(int argc, char** argv, void (*report)()) {
  init_out(argc, argv);
  report();
  std::printf("\n-- kernel timings (google-benchmark) --\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace twiddc::benchutil
