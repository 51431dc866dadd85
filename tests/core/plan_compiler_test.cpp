// Plan-compiler layer: canonical/structural keys, coefficient/LUT dedup,
// the process-wide CompiledPlanCache (hit/miss/eviction/holder-survival
// semantics, concurrent compile), and the fused tile executor's bit-exactness
// against the staged DdcPipeline -- across randomized topologies, streaming
// seams, both simd kill-switch states, and kSplice retunes.
//
// The cache and pool are process-wide singletons shared with every other
// test in this binary, so every assertion on their counters works on deltas.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/core/datapath_spec.hpp"
#include "src/core/ddc_config.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/plan_compiler.hpp"
#include "src/dsp/fir_design.hpp"
#include "src/dsp/signal.hpp"
#include "src/fixed/qformat.hpp"
#include "tests/core/simd_tiers.hpp"

namespace twiddc::core {
namespace {

std::vector<std::int64_t> stimulus(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  return dsp::random_samples(12, n, rng);
}

ChainPlan reference_plan(double nco_freq_hz = 10.0e6) {
  return ChainPlan::figure1(DdcConfig::reference(nco_freq_hz),
                            DatapathSpec::wide16());
}

/// Same generator family as the backend conformance harness: 2..4 stages
/// drawn from the whole StageSpec vocabulary on a 16-bit rail.
ChainPlan random_arbitrary_plan(Rng& rng, int trial) {
  ChainPlan plan;
  plan.name = "compiler-arbitrary-" + std::to_string(trial);
  plan.input_rate_hz = 40.0e6;
  plan.front_end.nco_freq_hz = rng.uniform(2.0e6, 12.0e6);
  plan.front_end.input_bits = 12;
  plan.front_end.nco_amplitude_bits = 16;
  plan.front_end.mixer_out_bits = 16;
  if (rng.uniform_int(0, 3) == 0) plan.front_end.nco_mode = dsp::Nco::Mode::kTaylor;

  const int n_stages = static_cast<int>(rng.uniform_int(2, 4));
  for (int s = 0; s < n_stages; ++s) {
    const auto pick = rng.uniform_int(0, 2);
    if (pick == 0) {
      const int stages = static_cast<int>(rng.uniform_int(1, 4));
      const int dec = static_cast<int>(rng.uniform_int(2, 9));
      StageSpec cic = StageSpec::cic("cic" + std::to_string(s), stages, dec, 16);
      cic.post_shift = fixed::cic_bit_growth(stages, dec);
      cic.narrow_bits = 16;
      plan.stages.push_back(std::move(cic));
    } else {
      const int dec = static_cast<int>(rng.uniform_int(2, 4));
      const int taps = static_cast<int>(rng.uniform_int(15, 47));
      auto ideal = dsp::design_lowpass(taps, 0.4 / dec, dsp::Window::kBlackman);
      const auto q = dsp::quantize_coefficients(ideal, 15);
      StageSpec fir =
          pick == 1 ? StageSpec::fir("fir" + std::to_string(s),
                                     {q.begin(), q.end()}, ideal, dec)
                    : StageSpec::polyphase_fir("pfir" + std::to_string(s),
                                               {q.begin(), q.end()}, ideal, dec);
      fir.post_shift = 15;
      fir.narrow_bits = 16;
      plan.stages.push_back(std::move(fir));
    }
  }
  plan.validate();
  return plan;
}

// ------------------------------------------------------------------- keys

TEST(PlanCompilerKeys, CanonicalIgnoresPresentationFields) {
  ChainPlan a = reference_plan();
  ChainPlan b = a;
  b.name = "renamed";
  for (auto& st : b.stages) {
    st.label += "-x";
    st.post_scale *= 2.0;   // float-rail only
    st.taps_float.clear();  // float-rail only
  }
  EXPECT_EQ(canonical_plan_key(a), canonical_plan_key(b));
  EXPECT_EQ(structural_plan_key(a), structural_plan_key(b));
}

TEST(PlanCompilerKeys, CanonicalSeparatesDatapathChanges) {
  const ChainPlan base = reference_plan();
  ChainPlan retuned = base;
  retuned.front_end.nco_freq_hz += 1.0e6;
  EXPECT_NE(canonical_plan_key(base), canonical_plan_key(retuned));

  ChainPlan retapped = base;
  for (auto& st : retapped.stages)
    if (!st.taps.empty()) {
      st.taps[0] += 1;
      break;
    }
  EXPECT_NE(canonical_plan_key(base), canonical_plan_key(retapped));
}

TEST(PlanCompilerKeys, CanonicalFollowsTheQuantisedTuningWord) {
  // Two frequencies inside the same tuning-word LSB execute identically, so
  // they must share a canonical key.  Build both FROM a word so neither sits
  // on a rounding boundary.
  ChainPlan base = reference_plan();
  const auto word = dsp::PhaseAccumulator::tuning_word(
      base.front_end.nco_freq_hz, base.input_rate_hz);
  const double lsb = dsp::PhaseAccumulator::resolution_hz(base.input_rate_hz);
  base.front_end.nco_freq_hz = static_cast<double>(word) * lsb;
  ChainPlan nudged = base;
  nudged.front_end.nco_freq_hz += 0.25 * lsb;
  ASSERT_EQ(dsp::PhaseAccumulator::tuning_word(base.front_end.nco_freq_hz,
                                               base.input_rate_hz),
            dsp::PhaseAccumulator::tuning_word(nudged.front_end.nco_freq_hz,
                                               nudged.input_rate_hz));
  EXPECT_EQ(canonical_plan_key(base), canonical_plan_key(nudged));
}

TEST(PlanCompilerKeys, StructuralKeyDefinesSpliceCompatibility) {
  const ChainPlan base = reference_plan();
  // A retune (frequency + coefficients + conditioning) is splice-compatible:
  // structural keys match while canonical keys differ.
  ChainPlan retune = base;
  retune.front_end.nco_freq_hz += 2.0e6;
  for (auto& st : retune.stages) {
    if (!st.taps.empty())
      for (auto& t : st.taps) t = -t;
    st.rounding = fixed::Rounding::kNearest;
  }
  EXPECT_EQ(structural_plan_key(base), structural_plan_key(retune));
  EXPECT_NE(canonical_plan_key(base), canonical_plan_key(retune));

  // A geometry change is not.
  ChainPlan regeom = base;
  regeom.stages[0].decimation += 1;
  EXPECT_NE(structural_plan_key(base), structural_plan_key(regeom));
}

// ------------------------------------------------------------------ dedup

TEST(PlanCompilerPool, IdenticalPlansShareCoefficientStorage) {
  const ChainPlan plan = reference_plan();
  const CompiledPlan a(plan);
  const CompiledPlan b(plan);
  ASSERT_EQ(a.stage_taps().size(), b.stage_taps().size());
  bool saw_fir = false;
  for (std::size_t i = 0; i < a.stage_taps().size(); ++i) {
    if (!a.stage_taps()[i]) continue;
    saw_fir = true;
    EXPECT_EQ(a.stage_taps()[i].get(), b.stage_taps()[i].get());
  }
  EXPECT_TRUE(saw_fir);
  ASSERT_TRUE(a.sine_table());
  EXPECT_EQ(a.sine_table().get(), b.sine_table().get());
  // Reversed taps are precomputed for the contiguous-window dot kernel.
  for (const auto& ts : a.stage_taps()) {
    if (!ts) continue;
    ASSERT_EQ(ts->forward.size(), ts->reversed.size());
    for (std::size_t k = 0; k < ts->forward.size(); ++k)
      EXPECT_EQ(ts->forward[k], ts->reversed[ts->reversed.size() - 1 - k]);
  }
}

TEST(PlanCompilerPool, PoolHoldsEntriesWeakly) {
  std::vector<std::int64_t> taps = {3, 1, 4, 1, 5, 9, 2, 6};
  auto& pool = CoeffPool::instance();
  const TapSet* first = nullptr;
  {
    auto held = pool.taps(taps);
    first = held.get();
    EXPECT_EQ(pool.taps(taps).get(), first);  // live entry dedups
  }
  // Both holders dropped: the pool must not keep the artifact alive, so a
  // fresh request allocates (possibly at the same address -- compare
  // CONTENT identity via the stats delta instead).
  const auto before = pool.stats();
  auto fresh = pool.taps(taps);
  const auto after = pool.stats();
  EXPECT_EQ(after.tap_requests, before.tap_requests + 1);
  EXPECT_EQ(after.tap_hits, before.tap_hits);  // expired -> miss, recompute
}

// ------------------------------------------------------------------ cache

TEST(PlanCompilerCache, HitMissEvictionSemantics) {
  auto& cache = CompiledPlanCache::instance();
  cache.clear();
  cache.set_capacity(2);
  const auto base = cache.stats();

  const ChainPlan p1 = reference_plan(9.0e6);
  const ChainPlan p2 = reference_plan(10.0e6);
  const ChainPlan p3 = reference_plan(11.0e6);

  auto c1 = cache.get_or_compile(p1);
  EXPECT_EQ(cache.stats().misses, base.misses + 1);
  auto c1_again = cache.get_or_compile(p1);
  EXPECT_EQ(c1.get(), c1_again.get());
  EXPECT_EQ(cache.stats().hits, base.hits + 1);

  (void)cache.get_or_compile(p2);
  (void)cache.get_or_compile(p3);  // capacity 2: evicts the LRU entry (p1)
  EXPECT_EQ(cache.stats().evictions, base.evictions + 1);
  EXPECT_EQ(cache.stats().entries, 2u);

  // Eviction never invalidates holders: c1 still executes.
  FusedChainExec exec(c1);
  std::vector<IqSample> sink;
  exec.process_block(stimulus(1024, 7), sink);

  // Re-requesting the evicted plan recompiles (a miss, not a hit).
  const auto before = cache.stats();
  auto c1_re = cache.get_or_compile(p1);
  EXPECT_EQ(cache.stats().misses, before.misses + 1);
  EXPECT_EQ(c1_re->canonical_key(), c1->canonical_key());

  cache.set_capacity(CompiledPlanCache::kDefaultCapacity);
  cache.clear();
}

TEST(PlanCompilerCache, InvalidPlansThrowWithoutCaching) {
  auto& cache = CompiledPlanCache::instance();
  ChainPlan bad = reference_plan();
  bad.input_rate_hz = -1.0;
  const auto before = cache.stats();
  EXPECT_THROW((void)cache.get_or_compile(bad), ConfigError);
  EXPECT_EQ(cache.stats().entries, before.entries);
}

TEST(PlanCompilerCache, ConcurrentGetOrCompileSharesOneArtifact) {
  auto& cache = CompiledPlanCache::instance();
  cache.clear();
  const ChainPlan plan = reference_plan(13.0e6);
  const auto before = cache.stats();
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const CompiledPlan>> got(kThreads);
  {
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      pool.emplace_back([&cache, &plan, &got, t] {
        for (int i = 0; i < 16; ++i) got[static_cast<std::size_t>(t)] =
            cache.get_or_compile(plan);
      });
    for (auto& th : pool) th.join();
  }
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[0].get(), got[static_cast<std::size_t>(t)].get());
  const auto after = cache.stats();
  // Compilation happens under the cache mutex: exactly one compile no matter
  // how the threads interleave.
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.lookups, before.lookups + kThreads * 16);
}

// ------------------------------------------------------------ fused exec

void expect_fused_matches_staged(const ChainPlan& plan, std::uint64_t seed,
                                 const test::Tier& tier) {
  test::ScopedTier guard(tier);
  DdcPipeline staged(plan);
  FusedChainExec fused(CompiledPlanCache::instance().get_or_compile(plan));

  // Two uneven blocks: the second exercises the carried state (NCO phase,
  // CIC registers, FIR tails, decimation phases) across the seam.  4097
  // also exercises the fused executor's partial-tile path.
  const auto block_a = stimulus(4097, seed);
  const auto block_b = stimulus(2688 * 2 + 13, seed + 1);
  std::vector<IqSample> want;
  std::vector<IqSample> got;
  staged.process_block(block_a, want);
  staged.process_block(block_b, want);
  fused.process_block(block_a, got);
  fused.process_block(block_b, got);
  ASSERT_EQ(want.size(), got.size()) << plan.name << " tier=" << tier.name;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << plan.name << " sample " << i
                               << " tier=" << tier.name;
  }
}

TEST(FusedChainExec, Figure1BitExactWithStagedPipeline) {
  expect_fused_matches_staged(reference_plan(), 11, test::kTiers[0]);
}

TEST(FusedChainExec, KillSwitchForcesScalarAndStaysBitExact) {
  // simd::set_enabled(false) must route the fused kernels onto the baseline
  // tier too; outputs stay identical to the (also baseline) staged pipeline.
  expect_fused_matches_staged(reference_plan(), 12, test::kTiers[2]);
}

TEST(FusedChainExec, RandomizedTopologiesBitExactBothSimdStates) {
  Rng rng(2026);
  for (int trial = 0; trial < 12; ++trial) {
    const ChainPlan plan = random_arbitrary_plan(rng, trial);
    expect_fused_matches_staged(plan, 100 + static_cast<std::uint64_t>(trial),
                                test::kTiers[trial % 3]);
  }
}

TEST(FusedChainExec, RejectsOutOfRangeInputWithoutAdvancingState) {
  const ChainPlan plan = reference_plan();
  FusedChainExec fused(CompiledPlanCache::instance().get_or_compile(plan));
  DdcPipeline staged(plan);

  std::vector<std::int64_t> bad = stimulus(512, 3);
  bad[300] = std::int64_t{1} << 40;  // does not fit 12 bits
  std::vector<IqSample> sink;
  EXPECT_THROW(fused.process_block(bad, sink), SimulationError);
  EXPECT_THROW(staged.process_block(bad, sink), SimulationError);

  // All-or-nothing: no state advanced, so the SAME instances must still
  // agree on the next (valid) block.
  const auto good = stimulus(2688 * 2, 5);
  std::vector<IqSample> want;
  std::vector<IqSample> got;
  staged.process_block(good, want);
  fused.process_block(good, got);
  EXPECT_EQ(want, got);
}

TEST(FusedChainExec, SpliceToCachedPlanMatchesStagedSplice) {
  auto& cache = CompiledPlanCache::instance();
  const ChainPlan base = reference_plan();

  // A retune: new frequency, negated FIR taps, nearest rounding -- the
  // structural form is unchanged, so the retune resolves to a (possibly
  // already cached) CompiledPlan and splices in.
  ChainPlan retune = base;
  retune.name = "retuned";
  retune.front_end.nco_freq_hz += 1.5e6;
  for (auto& st : retune.stages)
    if (!st.taps.empty())
      for (auto& t : st.taps) t = -t;

  // Pre-populate the cache with the retune target: the splice must reuse it.
  const auto cached_target = cache.get_or_compile(retune);

  DdcPipeline staged(base);
  FusedChainExec fused(cache.get_or_compile(base));
  std::vector<IqSample> want;
  std::vector<IqSample> got;
  const auto pre = stimulus(2688, 21);
  staged.process_block(pre, want);
  fused.process_block(pre, got);
  ASSERT_EQ(want, got);

  staged.swap_plan(retune, SwapMode::kSplice);
  ASSERT_TRUE(fused.can_splice(*cached_target));
  fused.splice(cache.get_or_compile(retune));
  EXPECT_EQ(fused.compiled_ptr().get(), cached_target.get());

  want.clear();
  got.clear();
  const auto post = stimulus(2688 * 2, 22);
  staged.process_block(post, want);
  fused.process_block(post, got);
  EXPECT_EQ(want, got);
}

TEST(FusedChainExec, SpliceRejectsStructuralChanges) {
  auto& cache = CompiledPlanCache::instance();
  ChainPlan other = reference_plan();
  other.stages[0].decimation += 1;
  FusedChainExec fused(cache.get_or_compile(reference_plan()));
  const auto incompatible = cache.get_or_compile(other);
  EXPECT_FALSE(fused.can_splice(*incompatible));
  EXPECT_THROW(fused.splice(incompatible), ConfigError);
}

}  // namespace
}  // namespace twiddc::core
