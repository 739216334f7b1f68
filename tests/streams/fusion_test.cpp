// Push-mode pipeline fusion (docs/execution.md, "Pipeline fusion"): a
// stream is its FusedPipeline — a source plus the stages its ops
// appended — and every terminal drives one sink chain per leaf. These
// tests pin the contract:
// results equal plain-loop expectations, short-circuit chains consume
// exactly as deep into the source as their semantics demand, concat and
// unsized sources fuse too, and the fused_leaves counter records that
// every stream leaf ran fused.
#include "streams/fusion.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "forkjoin/pool.hpp"
#include "observe/counters.hpp"
#include "streams/collector.hpp"
#include "streams/sink.hpp"
#include "streams/spliterators.hpp"
#include "streams/stream.hpp"

namespace {

using pls::observe::CounterTotals;
using pls::streams::Stream;

std::vector<long> iota(std::size_t n) {
  std::vector<long> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

/// Plain-loop map over a vector: the reference the fused chains must hit.
template <typename Fn>
auto mapped(const std::vector<long>& in, Fn fn) {
  std::vector<std::invoke_result_t<Fn&, long>> out;
  for (const long v : in) out.push_back(fn(v));
  return out;
}

CounterTotals counters_now() { return pls::observe::aggregate_counters(); }

// ---- result equivalence ----------------------------------------------

TEST(Fusion, MapChainMatchesLegacyOnArraySource) {
  const auto data = iota(1000);  // non-power-of-two: supplier/combiner path
  const auto out = Stream<long>::of(data)
                       .map([](long v) { return v * 3; })
                       .map([](long v) { return v - 7; })
                       .map([](long v) { return v ^ 0x55; })
                       .to_vector();
  EXPECT_EQ(out, mapped(data, [](long v) { return (v * 3 - 7) ^ 0x55; }));
}

TEST(Fusion, MapFilterPeekChainMatchesLegacy) {
  std::atomic<std::uint64_t> seen{0};
  const auto out = Stream<long>::range(0, 777)
                       .map([](long v) { return v * 2 + 1; })
                       .filter([](long v) { return v % 3 != 0; })
                       .peek([&seen](const long&) {
                         seen.fetch_add(1, std::memory_order_relaxed);
                       })
                       .to_vector();
  std::vector<long> expected;
  for (long v = 0; v < 777; ++v) {
    if ((v * 2 + 1) % 3 != 0) expected.push_back(v * 2 + 1);
  }
  EXPECT_EQ(out, expected);
  EXPECT_EQ(seen.load(), expected.size());
}

TEST(Fusion, TypeChangingMapChainMatchesLegacy) {
  const auto out =
      Stream<long>::generate([](std::uint64_t i) { return long(i); }, 300)
          .map([](long v) { return double(v) * 0.5; })
          .map([](double v) { return std::to_string(v); })
          .to_vector();
  std::vector<std::string> expected;
  for (long v = 0; v < 300; ++v) {
    expected.push_back(std::to_string(double(v) * 0.5));
  }
  EXPECT_EQ(out, expected);
}

TEST(Fusion, ParallelTerminalsMatchLegacyAcrossChunkSizes) {
  pls::forkjoin::ForkJoinPool pool(3);
  const auto data = iota(1 << 10);
  std::vector<long> expected;
  for (const long v : data) {
    if (((v * v) & 3) != 0) expected.push_back(v * v);
  }
  for (const std::uint64_t chunk : {1ull, 7ull, 64ull, 2000ull}) {
    const auto out = Stream<long>::of(data)
                         .parallel()
                         .via(pool)
                         .with_min_chunk(chunk)
                         .map([](long v) { return v * v; })
                         .filter([](long v) { return (v & 3) != 0; })
                         .to_vector();
    EXPECT_EQ(out, expected) << "min_chunk=" << chunk;
  }
}

TEST(Fusion, ReduceForEachCountAndSumMatchLegacy) {
  pls::forkjoin::ForkJoinPool pool(2);
  const auto data = iota(513);
  const auto fn = [](long v) { return v ^ (v << 3); };
  const auto expected = mapped(data, fn);
  long expected_xor = 0;
  for (const long v : expected) expected_xor ^= v;
  const long expected_sum =
      std::accumulate(expected.begin(), expected.end(), 0L);
  const auto base = [&] { return Stream<long>::of(data).map(fn); };
  EXPECT_EQ(base().reduce([](long a, long b) { return a ^ b; }),
            expected_xor);
  EXPECT_EQ(base().count(), expected.size());
  EXPECT_EQ(std::move(base().parallel().via(pool)).sum(), expected_sum);
  std::atomic<long> acc{0};
  base().parallel().via(pool).for_each([&](const long& v) {
    acc.fetch_add(v, std::memory_order_relaxed);
  });
  EXPECT_EQ(acc.load(), expected_sum);
}

TEST(Fusion, EmptyAndSingletonSources) {
  for (const long n : {0L, 1L}) {
    const auto out = Stream<long>::range(0, n)
                         .map([](long v) { return v + 1; })
                         .to_vector();
    EXPECT_EQ(out, n == 0 ? std::vector<long>{} : std::vector<long>{1})
        << "n=" << n;
  }
}

// ---- short-circuit semantics -----------------------------------------

TEST(Fusion, LimitConsumesExactlyAsDeepAsLegacy) {
  // A counting peek below the slice observes source consumption depth:
  // the cancellable driver must pull exactly the 37 elements it keeps.
  std::uint64_t pulls = 0;
  auto out = Stream<long>::range(0, 10000)
                 .peek([&pulls](const long&) { ++pulls; })
                 .limit(37)
                 .to_vector();
  EXPECT_EQ(out.size(), 37u);
  EXPECT_EQ(pulls, 37u);
}

TEST(Fusion, SkipThenLimitMatchesLegacy) {
  const auto out = Stream<long>::range(0, 500)
                       .skip(100)
                       .limit(50)
                       .map([](long v) { return v * 11; })
                       .to_vector();
  std::vector<long> expected;
  for (long v = 100; v < 150; ++v) expected.push_back(v * 11);
  EXPECT_EQ(out, expected);
}

TEST(Fusion, TakeWhileStopsAtFirstFailureLikeLegacy) {
  std::uint64_t pulls = 0;
  auto out = Stream<long>::range(0, 10000)
                 .peek([&pulls](const long&) { ++pulls; })
                 .take_while([](long v) { return v < 123; })
                 .to_vector();
  EXPECT_EQ(out.size(), 123u);
  // take_while consumes through the first failing element.
  EXPECT_EQ(pulls, 124u);
}

TEST(Fusion, CancellingChainsRefuseToSplitInParallelMode) {
  // limit in a parallel pipeline: the cancelling chain must stay a
  // single leaf and still be exact.
  pls::forkjoin::ForkJoinPool pool(4);
  const CounterTotals before = counters_now();
  const auto out = Stream<long>::range(0, 1 << 12)
                       .parallel()
                       .via(pool)
                       .with_min_chunk(8)
                       .map([](long v) { return v + 1; })
                       .limit(100)
                       .to_vector();
  const CounterTotals delta = counters_now() - before;
  std::vector<long> expected(100);
  std::iota(expected.begin(), expected.end(), 1);
  EXPECT_EQ(out, expected);
  if (pls::observe::kEnabled) {
    EXPECT_EQ(delta.leaf_chunks, 1u);
  }
}

// ---- admission and routing -------------------------------------------

TEST(Fusion, FusedLeavesCounterRecordsRouting) {
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  const auto data = iota(256);
  {
    const CounterTotals before = counters_now();
    (void)Stream<long>::of(data)
        .with_sized_sink(false)
        .map([](long v) { return v * 2; })
        .to_vector();
    const CounterTotals delta = counters_now() - before;
    EXPECT_EQ(delta.fused_leaves, 1u);
    EXPECT_EQ(delta.leaf_chunks, 1u);
    EXPECT_EQ(delta.elements_accumulated, 256u);
  }
  {
    // drop_while is a stateful stage over the SIZED array source; it makes
    // the output count unknowable, so the leaf reports no element count.
    const CounterTotals before = counters_now();
    const auto out = Stream<long>::of(data)
                         .drop_while([](long v) { return v < 10; })
                         .map([](long v) { return v * 2; })
                         .to_vector();
    const CounterTotals delta = counters_now() - before;
    EXPECT_EQ(out.size(), 247u);
    EXPECT_EQ(delta.fused_leaves, 1u);
    EXPECT_EQ(delta.leaf_chunks, 1u);
    EXPECT_EQ(delta.elements_accumulated, 0u);
    const auto& plan = pls::streams::last_plan();
    EXPECT_EQ(plan.stages, 2u);
    EXPECT_TRUE(plan.sized);
    EXPECT_EQ(plan.source_size, 256u);
    EXPECT_TRUE(plan.stateful);
    EXPECT_EQ(plan.dps_reason, pls::streams::PlanReason::kChainStateful);
  }
}

TEST(Fusion, ParallelFusedLeafCountMatchesLeafChunks) {
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  pls::forkjoin::ForkJoinPool pool(2);
  const CounterTotals before = counters_now();
  (void)Stream<long>::of(iota(1 << 10))
      .parallel()
      .via(pool)
      .with_min_chunk(64)
      .map([](long v) { return v + 3; })
      .to_vector();
  const CounterTotals delta = counters_now() - before;
  EXPECT_GT(delta.leaf_chunks, 1u);
  EXPECT_EQ(delta.fused_leaves, delta.leaf_chunks);
  EXPECT_EQ(delta.elements_accumulated, 1u << 10);
}

TEST(Fusion, ConcatBottomedChainFuses) {
  // concat names no destination window but is SIZED|SUBSIZED: it is the
  // pipeline's source, and every leaf — one per concat half and below, in
  // parallel — runs the fused map chain.
  pls::forkjoin::ForkJoinPool pool(2);
  std::vector<long> expected;
  for (long v = 0; v < 100; ++v) expected.push_back(v * 5);
  for (long v = 200; v < 300; ++v) expected.push_back(v * 5);
  for (const bool parallel : {false, true}) {
    const CounterTotals before = counters_now();
    auto stream = Stream<long>::concat(Stream<long>::range(0, 100),
                                       Stream<long>::range(200, 300));
    if (parallel) stream = std::move(stream).parallel().via(pool);
    const auto out =
        std::move(stream).map([](long v) { return v * 5; }).to_vector();
    const CounterTotals delta = counters_now() - before;
    EXPECT_EQ(out, expected) << (parallel ? "parallel" : "sequential");
    if (pls::observe::kEnabled) {
      EXPECT_GT(delta.leaf_chunks, 0u);
      EXPECT_EQ(delta.fused_leaves, delta.leaf_chunks);
      EXPECT_EQ(delta.elements_accumulated, 200u);
    }
  }
}

TEST(Fusion, ConcatForwardsContiguousChunksBitIdentically) {
  // Two array halves hand their storage over chunk by chunk; a range
  // first half is not contiguous, so the buffered path drains the rest.
  // Both must match the plain loop in sequential and parallel modes.
  pls::forkjoin::ForkJoinPool pool(3);
  std::vector<long> lo(1500), hi(2600);
  for (std::size_t i = 0; i < lo.size(); ++i) lo[i] = long(i * 7) - 900;
  for (std::size_t i = 0; i < hi.size(); ++i) hi[i] = 5000 - long(i * 3);
  const auto f = [](long v) {
    const double w = double(v) * 1.0001 + 0.5;
    return w * w - 3.0;
  };
  const auto maps = [](Stream<long> s) {
    return std::move(s)
        .map([](long v) { return double(v) * 1.0001 + 0.5; })
        .map([](double w) { return w * w - 3.0; });
  };
  std::vector<double> arrays_expected;
  for (const long v : lo) arrays_expected.push_back(f(v));
  for (const long v : hi) arrays_expected.push_back(f(v));
  std::vector<double> mixed_expected;
  for (long v = 0; v < 1000; ++v) mixed_expected.push_back(f(v));
  for (const long v : hi) mixed_expected.push_back(f(v));
  for (const bool parallel : {false, true}) {
    const auto run = [&](Stream<long> s) {
      if (parallel) s = std::move(s).parallel().via(pool).with_min_chunk(256);
      return maps(std::move(s)).to_vector();
    };
    EXPECT_EQ(run(Stream<long>::concat(Stream<long>::of(lo),
                                       Stream<long>::of(hi))),
              arrays_expected)
        << "array+array, parallel=" << parallel;
    EXPECT_EQ(run(Stream<long>::concat(Stream<long>::range(0, 1000),
                                       Stream<long>::of(hi))),
              mixed_expected)
        << "range+array, parallel=" << parallel;
  }
}

TEST(Fusion, UnsizedIterateTailFuses) {
  // iterate is unsized: it is the source below the map and limit stages.
  // The plan reports the real (unsized) shape, no DPS, and the leaf
  // reports no element count.
  const CounterTotals before = counters_now();
  const auto out = Stream<long>::iterate(1L, [](long v) { return v * 2; })
                       .map([](long v) { return v + 1; })
                       .limit(20)
                       .to_vector();
  const CounterTotals delta = counters_now() - before;
  std::vector<long> expected;
  for (long v = 1, i = 0; i < 20; ++i, v *= 2) expected.push_back(v + 1);
  EXPECT_EQ(out, expected);
  const auto& plan = pls::streams::last_plan();
  EXPECT_FALSE(plan.sized);
  EXPECT_FALSE(plan.subsized);
  EXPECT_EQ(plan.stages, 2u);
  EXPECT_FALSE(plan.dps);
  EXPECT_EQ(plan.dps_reason, pls::streams::PlanReason::kChainNotOneToOne);
  if (pls::observe::kEnabled) {
    EXPECT_EQ(delta.fused_leaves, 1u);
    EXPECT_EQ(delta.elements_accumulated, 0u);
  }
}

TEST(Fusion, FlatMapChainFusesAsMultiAcceptStage) {
  const CounterTotals before = counters_now();
  const auto out = Stream<long>::range(0, 64)
                       .flat_map([](const long& v) {
                         return std::vector<long>{v, v + 1};
                       })
                       .map([](long v) { return v * 7; })
                       .to_vector();
  const CounterTotals delta = counters_now() - before;
  std::vector<long> expected;
  for (long v = 0; v < 64; ++v) {
    expected.push_back(v * 7);
    expected.push_back((v + 1) * 7);
  }
  EXPECT_EQ(out, expected);
  EXPECT_EQ(pls::streams::last_plan().stages, 2u);  // flat_map + map
  if (pls::observe::kEnabled) {
    EXPECT_GT(delta.fused_leaves, 0u);
  }
}

// ---- fused destination-passing collect -------------------------------

TEST(Fusion, FusedDpsCollectMatchesAllOtherRoutes) {
  pls::forkjoin::ForkJoinPool pool(3);
  const auto data = iota(1 << 11);  // power of two: DPS-admissible
  const auto expected = mapped(data, [](long v) { return v * 13 + 1; });
  for (const bool sized_sink : {false, true}) {
    const auto out = Stream<long>::of(data)
                         .parallel()
                         .via(pool)
                         .with_min_chunk(32)
                         .with_sized_sink(sized_sink)
                         .map([](long v) { return v * 13 + 1; })
                         .to_vector();
    EXPECT_EQ(out, expected) << "sized_sink=" << sized_sink;
    EXPECT_EQ(pls::streams::last_plan().dps, sized_sink);
  }
}

TEST(Fusion, FusedDpsLeavesAreCountedFused) {
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  pls::forkjoin::ForkJoinPool pool(2);
  const CounterTotals before = counters_now();
  (void)Stream<long>::of(iota(1 << 10))
      .parallel()
      .via(pool)
      .with_min_chunk(64)
      .with_sized_sink(true)
      .map([](long v) { return v + 1; })
      .to_vector();
  const CounterTotals delta = counters_now() - before;
  EXPECT_GT(delta.fused_leaves, 1u);
  EXPECT_EQ(delta.fused_leaves, delta.leaf_chunks);
}

// ---- chunked vs element transport ------------------------------------

TEST(Fusion, ChunkedAndCancellableDriversAgree) {
  // The same logical chain, once bulk (no cancelling stage) and once
  // element-mode (with a never-failing take_while forcing cancellable
  // transport), must produce identical output.
  const auto bulk = Stream<long>::range(0, 4096)
                        .map([](long v) { return v * 3 + 1; })
                        .filter([](long v) { return v % 5 != 0; })
                        .to_vector();
  const auto element = Stream<long>::range(0, 4096)
                           .take_while([](long) { return true; })
                           .map([](long v) { return v * 3 + 1; })
                           .filter([](long v) { return v % 5 != 0; })
                           .to_vector();
  EXPECT_EQ(bulk, element);
}

TEST(Fusion, LargeArrayChunksSpanMultipleFusionBuffers) {
  // > kFusionChunk elements through a Generate source exercises the
  // buffered transport's flush-and-refill path.
  const std::uint64_t n = pls::streams::kFusionChunk * 3 + 17;
  const auto out = Stream<std::uint64_t>::generate(
                       [](std::uint64_t i) { return i * i; }, n)
                       .map([](std::uint64_t v) { return v ^ 0xdeadbeef; })
                       .to_vector();
  ASSERT_EQ(out.size(), n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], (i * i) ^ 0xdeadbeef) << "i=" << i;
  }
}

// ---- downstream batches of the stateless stages ----------------------

/// One terminal-sink call: the pointer and length of an accept_chunk, or
/// length 0 for a single-element accept.
using Batch = std::pair<const long*, std::size_t>;

/// A chunk-accumulating collector that logs every call its terminal sink
/// receives instead of folding anything.
struct BatchLog final : pls::streams::Collector<long, std::vector<Batch>> {
  std::vector<Batch> supply() const override { return {}; }
  void accumulate(std::vector<Batch>& log, const long& v) const override {
    log.emplace_back(&v, 0);
  }
  void accumulate_chunk(std::vector<Batch>& log, const long* p,
                        std::size_t n) const {
    log.emplace_back(p, n);
  }
  void combine(std::vector<Batch>& left,
               std::vector<Batch>& right) const override {
    left.insert(left.end(), right.begin(), right.end());
  }
};

std::vector<std::size_t> batch_sizes(const std::vector<Batch>& log) {
  std::vector<std::size_t> sizes;
  for (const Batch& b : log) sizes.push_back(b.second);
  return sizes;
}

TEST(Fusion, StatelessStagesDeliverPinnedBatches) {
  // A boundary-sensitive chunk fold (the Horner kernel) sees exactly these
  // batches, so they are part of each op's contract. 2500 array elements
  // arrive as one contiguous span.
  static_assert(pls::streams::kFusionChunk == 1024);
  const auto data = std::make_shared<const std::vector<long>>(iota(2500));
  const auto source = [&] { return Stream<long>::of_shared(data); };

  // map: one batch per kFusionChunk-input slice.
  const auto mapped_log =
      source().map([](long v) { return v * 3; }).collect(BatchLog{});
  EXPECT_EQ(batch_sizes(mapped_log),
            (std::vector<std::size_t>{1024, 1024, 452}));

  // filter: each slice compacted, an emptied slice dropped (1..1024 all
  // fail, 1101..2048 and 2049..2500 pass).
  const auto filtered_log =
      source().filter([](long v) { return v > 1100; }).collect(BatchLog{});
  EXPECT_EQ(batch_sizes(filtered_log),
            (std::vector<std::size_t>{948, 452}));

  // peek: the source span itself, pointer and length.
  const auto peeked_log =
      source().peek([](const long&) {}).collect(BatchLog{});
  ASSERT_EQ(peeked_log.size(), 1u);
  EXPECT_EQ(peeked_log[0], Batch(data->data(), 2500));

  // flat_map: expansions gathered until the buffer reaches kFusionChunk
  // (342 inputs x 3 = 1026), never splitting one expansion, then the rest.
  const auto expanded_log = source()
                                .flat_map([](const long& v) {
                                  return std::vector<long>{v, v, v};
                                })
                                .collect(BatchLog{});
  EXPECT_EQ(batch_sizes(expanded_log),
            (std::vector<std::size_t>{1026, 1026, 1026, 1026, 1026, 1026,
                                      1026, 318}));
}

// ---- the pull view (into_spliterator) --------------------------------

TEST(Fusion, StageFreeStreamHandsBackItsSource) {
  // A concat of plain sources keeps its parts' zero-copy try_chunk
  // because a stage-free stream's pull view is its source itself.
  auto sp = Stream<long>::of(iota(8)).into_spliterator();
  EXPECT_NE(dynamic_cast<pls::streams::ArraySpliterator<long>*>(sp.get()),
            nullptr);
  auto staged = Stream<long>::of(iota(8))
                    .map([](long v) { return v; })
                    .into_spliterator();
  EXPECT_EQ(dynamic_cast<pls::streams::ArraySpliterator<long>*>(staged.get()),
            nullptr);
}

TEST(Fusion, PullViewStepsOneSourceElementAtATime) {
  // try_advance pushes source elements through the chain one at a time
  // until an element comes out: the filter keeps multiples of 3, so the
  // second element out (3) costs source pulls 1, 2 and 3.
  std::uint64_t pulls = 0;
  auto sp = Stream<long>::range(0, 100)
                .peek([&pulls](const long&) { ++pulls; })
                .filter([](long v) { return v % 3 == 0; })
                .into_spliterator();
  std::vector<long> got;
  const auto take = [&](const long& v) { got.push_back(v); };
  ASSERT_TRUE(sp->try_advance(take));
  EXPECT_EQ(pulls, 1u);
  ASSERT_TRUE(sp->try_advance(take));
  EXPECT_EQ(pulls, 4u);
  // A stepped view no longer splits; the rest drains through the same
  // chain.
  EXPECT_EQ(sp->try_split(), nullptr);
  sp->for_each_remaining(take);
  EXPECT_EQ(pulls, 100u);
  ASSERT_EQ(got.size(), 34u);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], long(3 * i));
  EXPECT_FALSE(sp->try_advance(take));
}

TEST(Fusion, ConcatOfStagedPartsRunsEachPartChain) {
  pls::forkjoin::ForkJoinPool pool(2);
  std::vector<long> expected;
  for (long v = 0; v < 300; ++v) {
    if (v % 2 == 0) expected.push_back(v * 10);
  }
  for (long v = 0; v < 40; ++v) expected.push_back(v + 1000);
  for (const bool parallel : {false, true}) {
    auto stream = Stream<long>::concat(
        Stream<long>::range(0, 300)
            .filter([](long v) { return v % 2 == 0; })
            .map([](long v) { return v * 10; }),
        Stream<long>::range(1000, 5000).limit(40));
    if (parallel) {
      stream = std::move(stream).parallel().via(pool).with_min_chunk(16);
    }
    EXPECT_EQ(std::move(stream).to_vector(), expected)
        << (parallel ? "parallel" : "sequential");
    const auto& plan = pls::streams::last_plan();
    EXPECT_EQ(plan.stages, 0u);  // the part stages run inside the source
    EXPECT_FALSE(plan.sized);    // the filtered part is not SIZED
  }
}

TEST(Fusion, SortedIsABarrierSourceForTheStagesAfterIt) {
  const auto out = Stream<long>::range(0, 50)
                       .map([](long v) { return (v * 37) % 50; })
                       .sorted()
                       .map([](long v) { return v * 2; })
                       .limit(5)
                       .to_vector();
  EXPECT_EQ(out, (std::vector<long>{0, 2, 4, 6, 8}));
  const auto& plan = pls::streams::last_plan();
  EXPECT_EQ(plan.stages, 2u);  // map + limit after the barrier
  EXPECT_TRUE(plan.sized);
  EXPECT_EQ(plan.source_size, 50u);
  EXPECT_TRUE(plan.cancels);
}

TEST(Fusion, DropWhileRunsAsOneStatefulLeafInParallel) {
  pls::forkjoin::ForkJoinPool pool(3);
  const CounterTotals before = counters_now();
  const auto out = Stream<long>::range(0, 4096)
                       .parallel()
                       .via(pool)
                       .with_min_chunk(64)
                       .drop_while([](long v) { return v < 4000; })
                       .map([](long v) { return v - 4000; })
                       .to_vector();
  const CounterTotals delta = counters_now() - before;
  std::vector<long> expected(96);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(out, expected);
  const auto& plan = pls::streams::last_plan();
  EXPECT_EQ(plan.drive, pls::streams::DriveMode::kStatefulLoop);
  EXPECT_EQ(plan.dps_reason, pls::streams::PlanReason::kChainStateful);
  if (pls::observe::kEnabled) {
    EXPECT_EQ(delta.leaf_chunks, 1u);
  }
}

}  // namespace
