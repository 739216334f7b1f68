// The execution planner (streams/plan.hpp): admission verdicts with
// reasons, grain resolution (explicit / default / auto-tuned), the
// PlanCache policy maths, plan recording, and the explain() dump. These
// are the single-home predicates every entry point routes through, so
// the cases here pin the whole decision table.
#include "streams/plan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "forkjoin/pool.hpp"
#include "powerlist/spliterators.hpp"
#include "streams/collectors.hpp"
#include "streams/parallel_eval.hpp"
#include "streams/spliterators.hpp"
#include "streams/stream.hpp"

namespace {

namespace streams = pls::streams;
using streams::ArraySpliterator;
using streams::DriveMode;
using streams::ExecutionConfig;
using streams::ExecutionPlan;
using streams::GrainSource;
using streams::PlanCache;
using streams::PlanOrigin;
using streams::PlanProfile;
using streams::PlanReason;
using streams::TerminalKind;

std::shared_ptr<const std::vector<int>> ints(std::size_t n) {
  std::vector<int> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<int>(i);
  return std::make_shared<const std::vector<int>>(std::move(v));
}

std::unique_ptr<streams::Spliterator<int>> array_source(std::size_t n) {
  return std::make_unique<ArraySpliterator<int>>(ints(n));
}

std::unique_ptr<streams::Spliterator<int>> zip_source(std::size_t n) {
  return std::make_unique<pls::powerlist::ZipSpliterator<int>>(ints(n));
}

std::unique_ptr<streams::Spliterator<int>> tie_source(std::size_t n) {
  return std::make_unique<pls::powerlist::TieSpliterator<int>>(ints(n));
}

/// The plan of a terminal over the stage-free pipeline of `sp`.
ExecutionPlan plan_of(std::unique_ptr<streams::Spliterator<int>> sp,
                      TerminalKind kind, bool collector_sized,
                      bool chunk_collector, bool parallel,
                      const ExecutionConfig& cfg) {
  const auto fp = streams::fuse_source(std::move(sp));
  return streams::plan_fused_pipeline(*fp, kind, collector_sized,
                                      chunk_collector, parallel, cfg,
                                      PlanOrigin::kDynamic);
}

// ---- DPS admission --------------------------------------------------

TEST(PlanDpsWindow, AdmitsPowerOfTwoWindowedSource) {
  const ExecutionPlan p = plan_of(array_source(16), TerminalKind::kCollect,
                                  true, false, false, ExecutionConfig{});
  ASSERT_TRUE(p.dps);
  ASSERT_TRUE(p.window.has_value());
  EXPECT_EQ(p.window->count, 16u);
}

TEST(PlanDpsWindow, RejectsNonPowerOfTwo) {
  const ExecutionPlan p = plan_of(array_source(12), TerminalKind::kCollect,
                                  true, false, false, ExecutionConfig{});
  EXPECT_FALSE(p.dps);
  EXPECT_FALSE(p.window.has_value());
}

// ---- plan_fused_pipeline verdicts -----------------------------------

TEST(PlanPipeline, FusedDpsCollectPlan) {
  const ExecutionConfig cfg;
  const ExecutionPlan p = plan_of(
      array_source(64), TerminalKind::kCollect, /*collector_sized=*/true,
      /*chunk_collector=*/false, /*parallel=*/false, cfg);
  EXPECT_TRUE(p.sized);
  EXPECT_TRUE(p.subsized);
  EXPECT_TRUE(p.dps);
  EXPECT_EQ(p.dps_reason, PlanReason::kAdmitted);
  ASSERT_TRUE(p.window.has_value());
  EXPECT_EQ(p.window->count, 64u);
  EXPECT_EQ(p.drive, DriveMode::kSequential);
  EXPECT_EQ(p.grain_source, GrainSource::kNone);
}

TEST(PlanPipeline, NonCollectTerminalNeverDps) {
  auto sp = array_source(64);
  const ExecutionConfig cfg;
  const ExecutionPlan planned = plan_of(
      std::move(sp), TerminalKind::kCount, false, false, false, cfg);
  EXPECT_FALSE(planned.dps);
  EXPECT_EQ(planned.dps_reason, PlanReason::kTerminalNotCollect);
}

TEST(PlanPipeline, SizedSinkOffIsDisabledByConfig) {
  auto sp = array_source(64);
  const auto cfg = ExecutionConfig{}.with_sized_sink(false);
  const ExecutionPlan planned = plan_of(
      std::move(sp), TerminalKind::kCollect, true, false, false, cfg);
  EXPECT_FALSE(planned.dps);
  EXPECT_EQ(planned.dps_reason, PlanReason::kDisabledByConfig);
}

TEST(PlanPipeline, NonPowerOfTwoRefusesDpsWithReason) {
  auto sp = array_source(48);
  const ExecutionConfig cfg;
  const ExecutionPlan planned = plan_of(
      std::move(sp), TerminalKind::kCollect, true, false, false, cfg);
  EXPECT_FALSE(planned.dps);
  EXPECT_EQ(planned.dps_reason, PlanReason::kNotPowerOfTwo);
}

// ---- grain resolution ------------------------------------------------

TEST(PlanGrain, ExplicitMinChunkWins) {
  pls::forkjoin::ForkJoinPool pool(2);
  auto sp = array_source(1024);
  const auto cfg = ExecutionConfig{}.with_pool(pool).with_min_chunk(17);
  const ExecutionPlan planned = plan_of(
      std::move(sp), TerminalKind::kCollect, true, false, /*parallel=*/true,
      cfg);
  EXPECT_EQ(planned.grain, 17u);
  EXPECT_EQ(planned.grain_source, GrainSource::kExplicit);
}

TEST(PlanGrain, DefaultIsJavaQuarterRule) {
  pls::forkjoin::ForkJoinPool pool(2);
  auto sp = array_source(1024);
  const auto cfg = ExecutionConfig{}.with_pool(pool);
  const ExecutionPlan planned = plan_of(
      std::move(sp), TerminalKind::kCollect, true, false, true, cfg);
  EXPECT_EQ(planned.grain, streams::default_grain(1024, 2));
  EXPECT_EQ(planned.grain_source, GrainSource::kDefault);
}

TEST(PlanGrain, AutoGrainConsumesCacheAndNeverCoarsens) {
  pls::forkjoin::ForkJoinPool pool(2);
  PlanCache::global().clear();
  const auto cfg =
      ExecutionConfig{}.with_pool(pool).with_auto_grain(true);

  // Without a profile: identical to the default plan.
  {
    auto sp = array_source(1024);
    const ExecutionPlan planned = plan_of(
        std::move(sp), TerminalKind::kCollect, true, false, true, cfg);
    EXPECT_EQ(planned.grain_source, GrainSource::kDefault);
  }

  // With a profile installed for the shape key: tuned, and never coarser
  // than the default.
  std::uint64_t key = 0;
  {
    auto sp = array_source(1024);
    const ExecutionPlan planned = plan_of(
        std::move(sp), TerminalKind::kCollect, true, false, true, cfg);
    key = planned.cache_key;
  }
  PlanProfile prof;
  prof.samples = 1;
  prof.per_element_ns = 1e4;  // expensive elements => tiny tuned grain
  prof.tuned_grain =
      PlanCache::tuned_grain_for(1024, 2, prof.per_element_ns);
  PlanCache::global().put(key, prof);
  {
    auto sp = array_source(1024);
    const ExecutionPlan planned = plan_of(
        std::move(sp), TerminalKind::kCollect, true, false, true, cfg);
    EXPECT_EQ(planned.grain_source, GrainSource::kAutoTuned);
    EXPECT_EQ(planned.grain, prof.tuned_grain);
    EXPECT_LE(planned.grain, streams::default_grain(1024, 2));
  }
  PlanCache::global().clear();
}

TEST(PlanGrain, ZipSourceGetsOneLeafPerWorker) {
  pls::forkjoin::ForkJoinPool pool(3);
  auto sp = zip_source(1 << 12);
  const auto cfg = ExecutionConfig{}.with_pool(pool);
  const ExecutionPlan p = plan_of(std::move(sp), TerminalKind::kCollect,
                                  true, false, true, cfg);
  EXPECT_TRUE(p.interleaved);
  EXPECT_EQ(p.grain, (1u << 12) / 3);
  EXPECT_EQ(p.grain, streams::interleaved_grain(1 << 12, 3));
  EXPECT_EQ(p.grain_source, GrainSource::kInterleaved);
  const std::string text = p.explain();
  EXPECT_NE(text.find("(interleaved n/P)"), std::string::npos) << text;
  EXPECT_NE(text.find(", interleaved"), std::string::npos) << text;
}

TEST(PlanGrain, InterleavedGrainFloorsAtOne) {
  EXPECT_EQ(streams::interleaved_grain(2, 4), 1u);
  EXPECT_EQ(streams::interleaved_grain(0, 3), 1u);
  EXPECT_EQ(streams::interleaved_grain(1 << 20, 1), 1u << 20);
}

TEST(PlanGrain, TieSourceKeepsJavaQuarterRule) {
  pls::forkjoin::ForkJoinPool pool(3);
  auto sp = tie_source(1 << 12);
  const auto cfg = ExecutionConfig{}.with_pool(pool);
  const ExecutionPlan planned = plan_of(
      std::move(sp), TerminalKind::kCollect, true, false, true, cfg);
  EXPECT_FALSE(planned.interleaved);
  EXPECT_EQ(planned.grain, streams::default_grain(1 << 12, 3));
  EXPECT_EQ(planned.grain_source, GrainSource::kDefault);
  EXPECT_EQ(planned.explain().find("interleaved"), std::string::npos);
}

TEST(PlanGrain, ExplicitMinChunkBeatsInterleavedGrain) {
  pls::forkjoin::ForkJoinPool pool(3);
  auto sp = zip_source(1 << 12);
  const auto cfg = ExecutionConfig{}.with_pool(pool).with_min_chunk(64);
  const ExecutionPlan planned = plan_of(
      std::move(sp), TerminalKind::kCollect, true, false, true, cfg);
  EXPECT_EQ(planned.grain, 64u);
  EXPECT_EQ(planned.grain_source, GrainSource::kExplicit);
}

TEST(PlanGrain, PlantedProfileDoesNotRefineZipPlan) {
  // Auto-grain's leaf-time budget would split a zip source back into
  // leaves that share cache lines; the interleaved grain ignores it.
  pls::forkjoin::ForkJoinPool pool(3);
  PlanCache::global().clear();
  const auto cfg =
      ExecutionConfig{}.with_pool(pool).with_auto_grain(true);
  auto first = zip_source(1 << 12);
  const ExecutionPlan before = plan_of(
      std::move(first), TerminalKind::kCollect, true, false, true, cfg);
  PlanProfile prof;
  prof.samples = 1;
  prof.per_element_ns = 1e4;
  prof.tuned_grain =
      PlanCache::tuned_grain_for(1 << 12, 3, prof.per_element_ns);
  ASSERT_LT(prof.tuned_grain, before.grain);
  PlanCache::global().put(before.cache_key, prof);
  auto second = zip_source(1 << 12);
  const ExecutionPlan after = plan_of(
      std::move(second), TerminalKind::kCollect, true, false, true, cfg);
  PlanCache::global().clear();
  EXPECT_EQ(after.cache_key, before.cache_key);
  EXPECT_EQ(after.grain, before.grain);
  EXPECT_EQ(after.grain_source, GrainSource::kInterleaved);
}

TEST(PlanGrain, ConcatOfZipSourcesIsNotInterleaved) {
  // The concat's own split hands over its first part, not a stride.
  pls::forkjoin::ForkJoinPool pool(3);
  std::unique_ptr<streams::Spliterator<int>> sp =
      std::make_unique<streams::ConcatSpliterator<int>>(zip_source(64),
                                                        zip_source(64));
  const auto cfg = ExecutionConfig{}.with_pool(pool);
  const ExecutionPlan planned = plan_of(
      std::move(sp), TerminalKind::kCollect, true, false, true, cfg);
  EXPECT_FALSE(planned.interleaved);
  EXPECT_EQ(planned.grain_source, GrainSource::kDefault);
}

TEST(PlanCachePolicy, TunedGrainBounds) {
  // Cheap elements: the budget dominates the default => default wins.
  EXPECT_EQ(PlanCache::tuned_grain_for(1 << 20, 4, 0.5),
            streams::default_grain(1 << 20, 4));
  // No measurement: default.
  EXPECT_EQ(PlanCache::tuned_grain_for(1 << 20, 4, 0.0),
            streams::default_grain(1 << 20, 4));
  // Expensive elements: budget / cost, floored at 1.
  EXPECT_EQ(PlanCache::tuned_grain_for(1 << 20, 4, 2e5), 1u);
  const std::uint64_t tuned = PlanCache::tuned_grain_for(1 << 20, 4, 100.0);
  EXPECT_EQ(tuned, static_cast<std::uint64_t>(
                       streams::kAutoGrainTargetLeafNs / 100.0));
  EXPECT_LE(tuned, streams::default_grain(1 << 20, 4));
}

TEST(PlanCachePolicy, PutLookupClear) {
  PlanCache cache;
  EXPECT_FALSE(cache.lookup(42).has_value());
  PlanProfile p;
  p.tuned_grain = 128;
  cache.put(42, p);
  ASSERT_TRUE(cache.lookup(42).has_value());
  EXPECT_EQ(*cache.lookup(42), 128u);
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_FALSE(cache.lookup(42).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

// ---- determinism and the shape key ----------------------------------

TEST(PlanDeterminism, SameShapeSamePlan) {
  pls::forkjoin::ForkJoinPool pool(2);
  const auto cfg = ExecutionConfig{}.with_pool(pool);
  auto a_sp = array_source(256);
  auto b_sp = array_source(256);
  const ExecutionPlan a = plan_of(
      std::move(a_sp), TerminalKind::kCollect, true,
                                       false, true, cfg);
  const ExecutionPlan b = plan_of(
      std::move(b_sp), TerminalKind::kCollect, true,
                                       false, true, cfg);
  EXPECT_EQ(a.cache_key, b.cache_key);
  EXPECT_EQ(a.stages, b.stages);
  EXPECT_EQ(a.dps, b.dps);
  EXPECT_EQ(a.grain, b.grain);
  EXPECT_EQ(a.explain(), b.explain());
}

TEST(PlanCacheKey, DistinguishesShapes) {
  const auto k = [](TerminalKind kind, std::uint64_t n, unsigned p,
                    std::uint32_t stages) {
    return streams::plan_cache_key(kind, n, p, stages, true, false);
  };
  EXPECT_NE(k(TerminalKind::kCollect, 64, 4, 0),
            k(TerminalKind::kReduce, 64, 4, 0));
  EXPECT_NE(k(TerminalKind::kCollect, 64, 4, 0),
            k(TerminalKind::kCollect, 128, 4, 0));
  EXPECT_NE(k(TerminalKind::kCollect, 64, 4, 0),
            k(TerminalKind::kCollect, 64, 8, 0));
  EXPECT_NE(k(TerminalKind::kCollect, 64, 4, 0),
            k(TerminalKind::kCollect, 64, 4, 2));
}

// ---- widened admission: flat_map / distinct / sorted / match ---------

TEST(PlanWideAdmission, FlatMapFusesButRefusesDps) {
  auto out = streams::Stream<int>::range(0, 64)
                 .flat_map([](const int& v) {
                   return std::vector<int>{v, v + 1};
                 })
                 .to_vector();
  EXPECT_EQ(out.size(), 128u);
  const ExecutionPlan& p = streams::last_plan();
  EXPECT_EQ(p.stages, 1u);
  EXPECT_FALSE(p.one_to_one);
  EXPECT_FALSE(p.stateful);
  EXPECT_FALSE(p.dps);
  EXPECT_EQ(p.dps_reason, PlanReason::kChainNotOneToOne);
}

TEST(PlanWideAdmission, DistinctChainIsStatefulSingleLeaf) {
  pls::forkjoin::ForkJoinPool pool(2);
  auto out = streams::Stream<int>::range(0, 256)
                 .map([](int v) { return v / 2; })
                 .distinct()
                 .parallel()
                 .via(pool)
                 .to_vector();
  EXPECT_EQ(out.size(), 128u);
  const ExecutionPlan& p = streams::last_plan();
  EXPECT_EQ(p.stages, 2u);
  EXPECT_TRUE(p.stateful);
  EXPECT_FALSE(p.cancels);
  EXPECT_EQ(p.dps_reason, PlanReason::kChainStateful);
  EXPECT_EQ(p.drive, DriveMode::kStatefulLoop);
}

TEST(PlanWideAdmission, SortedResumesFusionDownstreamOfBuffer) {
  // 12-element range, filter keeps 8 (a power of two): the sorted buffer
  // recovers exact sizing, fusion restarts on it, and only the downstream
  // map lives in the fused chain — so DPS admits with the buffer's count.
  auto out = streams::Stream<int>::range(0, 12)
                 .filter([](const int& v) { return v % 3 != 0; })
                 .sorted()
                 .map([](int v) { return v + 1; })
                 .to_vector();
  EXPECT_EQ(out.size(), 8u);
  const ExecutionPlan& p = streams::last_plan();
  EXPECT_EQ(p.stages, 1u);  // just the map; filter ran upstream of the buffer
  EXPECT_EQ(p.source_size, 8u);
  EXPECT_TRUE(p.dps);
  ASSERT_TRUE(p.window.has_value());
  EXPECT_EQ(p.window->count, 8u);
}

TEST(PlanWideAdmission, MatchTerminalsRunFusedElementLoop) {
  pls::forkjoin::ForkJoinPool pool(2);
  const bool found = streams::Stream<int>::range(0, 64)
                         .map([](int v) { return v * 2; })
                         .any_match([](const int& v) { return v > 50; });
  EXPECT_TRUE(found);
  {
    const ExecutionPlan& p = streams::last_plan();
    EXPECT_EQ(p.terminal, TerminalKind::kAnyMatch);
    EXPECT_EQ(p.stages, 1u);
    EXPECT_EQ(p.drive, DriveMode::kElementLoop);
    EXPECT_FALSE(p.dps);
    EXPECT_EQ(p.dps_reason, PlanReason::kTerminalNotCollect);
  }
  // Parallel short-circuit terminals stay on the encounter-order element
  // loop: promptness beats splitting for find-like terminals.
  const bool all = streams::Stream<int>::range(0, 4096)
                       .parallel()
                       .via(pool)
                       .all_match([](const int& v) { return v >= 0; });
  EXPECT_TRUE(all);
  {
    const ExecutionPlan& p = streams::last_plan();
    EXPECT_EQ(p.terminal, TerminalKind::kAllMatch);
    EXPECT_TRUE(p.parallel);
    EXPECT_EQ(p.drive, DriveMode::kElementLoop);
  }
}

TEST(PlanCacheKey, DistinguishesStatefulChains) {
  EXPECT_NE(streams::plan_cache_key(TerminalKind::kCollect, 64, 4, 1, true,
                                    false, false),
            streams::plan_cache_key(TerminalKind::kCollect, 64, 4, 1, true,
                                    false, true));
}

// ---- recording and explain() ----------------------------------------

TEST(PlanRecording, TerminalsRecordLastPlan) {
  auto data = ints(32);
  auto out = streams::stream_support::from_spliterator<int>(
                 std::make_unique<ArraySpliterator<int>>(data), false)
                 .to_vector();
  EXPECT_EQ(out.size(), 32u);
  const ExecutionPlan& p = streams::last_plan();
  EXPECT_EQ(p.terminal, TerminalKind::kCollect);
  EXPECT_EQ(p.origin, PlanOrigin::kDynamic);
  EXPECT_EQ(p.stages, 0u);
  EXPECT_EQ(p.source_size, 32u);
}

TEST(PlanExplain, NamesTheDecisions) {
  auto sp = array_source(64);
  const ExecutionConfig cfg;
  const ExecutionPlan planned = plan_of(
      std::move(sp), TerminalKind::kCollect, true, false, false, cfg);
  const std::string text = planned.explain();
  EXPECT_NE(text.find("plan: collect"), std::string::npos);
  EXPECT_NE(text.find("source : 64 elements"), std::string::npos);
  EXPECT_NE(text.find("stages : 0 fused"), std::string::npos);
  EXPECT_EQ(text.find("fusion"), std::string::npos);
  EXPECT_NE(text.find("dps"), std::string::npos);
}

TEST(PlanExplain, NamesStatefulChainsAndShortCircuitTerminals) {
  (void)streams::Stream<int>::range(0, 32).distinct().to_vector();
  {
    const std::string text = streams::last_plan().explain();
    EXPECT_NE(text.find("stateful"), std::string::npos);
    EXPECT_NE(text.find("chain has a stateful stage"), std::string::npos);
  }
  (void)streams::Stream<int>::range(0, 32).find_first();
  {
    const std::string text = streams::last_plan().explain();
    EXPECT_NE(text.find("plan: find_first"), std::string::npos);
    EXPECT_NE(text.find("element loop"), std::string::npos);
  }
}

}  // namespace
