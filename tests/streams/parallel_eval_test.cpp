// Parallel/sequential equivalence: the central correctness property of the
// streams engine. Parameterised sweeps run every terminal op in both modes
// over many sizes (including non-powers of two and the empty stream) and
// demand identical results.
#include "streams/parallel_eval.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>
#include <string>

#include "observe/counters.hpp"
#include "observe/trace.hpp"
#include "streams/collectors.hpp"
#include "streams/stream.hpp"

namespace {

using pls::forkjoin::ForkJoinPool;
using pls::streams::Stream;
namespace collectors = pls::streams::collectors;

class ParallelEquivalence : public ::testing::TestWithParam<int> {};

std::vector<int> test_data(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = (i * 2654435761u) % 1000;
  }
  return v;
}

TEST_P(ParallelEquivalence, ToVectorPreservesEncounterOrder) {
  const auto data = test_data(GetParam());
  const auto seq = Stream<int>::of(data).to_vector();
  const auto par = Stream<int>::of(data).parallel().to_vector();
  EXPECT_EQ(par, seq);
  EXPECT_EQ(seq, data);
}

TEST_P(ParallelEquivalence, ReduceSum) {
  const auto data = test_data(GetParam());
  const auto seq =
      Stream<int>::of(data).reduce(0, [](int a, int b) { return a + b; });
  const auto par = Stream<int>::of(data).parallel().reduce(
      0, [](int a, int b) { return a + b; });
  EXPECT_EQ(par, seq);
}

TEST_P(ParallelEquivalence, NonCommutativeCollect) {
  // String concatenation detects any order violation.
  const auto data = test_data(GetParam());
  auto to_string_stream = [&](bool parallel) {
    auto s = Stream<int>::of(data).map(
        [](int v) { return std::to_string(v) + ";"; });
    if (parallel) s = std::move(s).parallel();
    return std::move(s).collect(collectors::joining(""));
  };
  EXPECT_EQ(to_string_stream(true), to_string_stream(false));
}

TEST_P(ParallelEquivalence, CountWithFilter) {
  const auto data = test_data(GetParam());
  const auto seq = Stream<int>::of(data)
                       .filter([](int v) { return v % 3 == 0; })
                       .count();
  const auto par = Stream<int>::of(data)
                       .parallel()
                       .filter([](int v) { return v % 3 == 0; })
                       .count();
  EXPECT_EQ(par, seq);
}

TEST_P(ParallelEquivalence, MinMax) {
  const auto data = test_data(GetParam());
  EXPECT_EQ(Stream<int>::of(data).parallel().min(),
            Stream<int>::of(data).min());
  EXPECT_EQ(Stream<int>::of(data).parallel().max(),
            Stream<int>::of(data).max());
}

TEST_P(ParallelEquivalence, ForEachVisitsEachElementOnce) {
  const int n = GetParam();
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  for (auto& h : hits) h.store(0);
  Stream<int>::range(0, n).parallel().for_each(
      [&](int v) { hits[static_cast<std::size_t>(v)].fetch_add(1); });
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ParallelEquivalence,
                         ::testing::Values(0, 1, 2, 3, 7, 8, 64, 100, 1024,
                                           4096, 10000));

TEST(ParallelEval, EveryLeafRecordsOneAccumulateSpan) {
  // Each terminal's leaves run under the one per-leaf helper, so a traced
  // run has exactly one accumulate span per counted leaf.
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  using pls::observe::EventKind;
  using pls::observe::TraceRecorder;
  ForkJoinPool pool(3);
  const auto data = std::make_shared<const std::vector<long>>(4096, 1L);
  const auto source = [&] {
    return Stream<long>::of_shared(data).parallel().via(pool).with_min_chunk(
        256);
  };
  const auto plus = [](long a, long b) { return a + b; };
  const auto keep = [](long) { return true; };
  const auto summing = collectors::summing<long>();
  const std::vector<std::pair<std::string, std::function<void()>>> terminals =
      {{"collect", [&] { (void)source().collect(summing); }},
       {"collect_into", [&] { (void)source().to_vector(); }},
       {"reduce", [&] { (void)source().reduce(plus); }},
       {"count", [&] { (void)source().filter(keep).count(); }},
       {"for_each", [&] { source().for_each([](const long&) {}); }}};
  auto& rec = TraceRecorder::global();
  for (const auto& [name, run] : terminals) {
    rec.disable();
    rec.clear();
    const auto before = pls::observe::aggregate_counters();
    rec.enable();
    run();
    rec.disable();
    const auto delta = pls::observe::aggregate_counters() - before;
    std::uint64_t spans = 0;
    std::uint64_t span_elements = 0;
    for (const auto& e : rec.events()) {
      if (e.kind != EventKind::kAccumulate) continue;
      ++spans;
      span_elements += e.arg;
    }
    EXPECT_EQ(delta.leaf_chunks, 16u) << name;
    EXPECT_EQ(spans, delta.leaf_chunks) << name;
    EXPECT_EQ(span_elements, delta.elements_accumulated) << name;
    EXPECT_EQ(delta.elements_accumulated, 4096u) << name;
  }
  rec.clear();
}

TEST(ParallelEval, ShortCircuitLeafCountsWhatItAccepted) {
  // A short-circuit terminal runs one observed element-mode leaf, which
  // reports the elements its terminal sink accepted: 0..4000 here.
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  using pls::observe::EventKind;
  using pls::observe::TraceRecorder;
  ForkJoinPool pool(3);
  auto& rec = TraceRecorder::global();
  rec.disable();
  rec.clear();
  const auto before = pls::observe::aggregate_counters();
  rec.enable();
  const bool found =
      Stream<long>::range(0, 4096).parallel().via(pool).any_match(
          [](long v) { return v == 4000; });
  rec.disable();
  const auto delta = pls::observe::aggregate_counters() - before;
  EXPECT_TRUE(found);
  std::uint64_t spans = 0;
  std::uint64_t span_elements = 0;
  for (const auto& e : rec.events()) {
    if (e.kind != EventKind::kAccumulate) continue;
    ++spans;
    span_elements += e.arg;
  }
  EXPECT_EQ(spans, 1u);
  EXPECT_EQ(span_elements, 4001u);
  EXPECT_EQ(delta.leaf_chunks, 1u);
  EXPECT_EQ(delta.elements_accumulated, 4001u);
  rec.clear();
}

TEST(ParallelEval, ExplicitPoolIsUsed) {
  ForkJoinPool pool(3);
  const auto sum = Stream<long>::range(0, 100000)
                       .parallel()
                       .via(pool)
                       .reduce(0L, [](long a, long b) { return a + b; });
  EXPECT_EQ(sum, 100000L * 99999 / 2);
}

TEST(ParallelEval, MinChunkControlsSplitDepth) {
  // With min_chunk >= size there is exactly one leaf: results still match.
  const auto out = Stream<int>::range(0, 1000)
                       .parallel()
                       .with_min_chunk(100000)
                       .to_vector();
  EXPECT_EQ(out.size(), 1000u);
  EXPECT_EQ(out.front(), 0);
  EXPECT_EQ(out.back(), 999);
}

TEST(ParallelEval, TinyMinChunkStillCorrect) {
  const auto out = Stream<int>::range(0, 513)
                       .parallel()
                       .with_min_chunk(1)
                       .to_vector();
  std::vector<int> expect(513);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(out, expect);
}

TEST(ParallelEval, SupplierCalledPerLeafChunk) {
  // Track how many containers are created in a parallel collect with a
  // known chunk target: 16 elements, chunks of <=4 -> at least 4 leaves.
  std::atomic<int> suppliers{0};
  auto c = pls::streams::make_collector<int>(
      [&suppliers] {
        suppliers.fetch_add(1);
        return std::vector<int>{};
      },
      [](std::vector<int>& acc, const int& v) { acc.push_back(v); },
      [](std::vector<int>& l, std::vector<int>& r) {
        l.insert(l.end(), r.begin(), r.end());
      });
  const auto out = Stream<int>::range(0, 16)
                       .parallel()
                       .with_min_chunk(4)
                       .collect(c);
  EXPECT_EQ(out.size(), 16u);
  EXPECT_GE(suppliers.load(), 4);
}

TEST(ParallelEval, SequentialCollectCallsSupplierOnce) {
  std::atomic<int> suppliers{0};
  auto c = pls::streams::make_collector<int>(
      [&suppliers] {
        suppliers.fetch_add(1);
        return 0L;
      },
      [](long& acc, const int& v) { acc += v; },
      [](long& l, long& r) { l += r; });
  const long sum = Stream<int>::range(0, 100).collect(c);
  EXPECT_EQ(sum, 4950);
  EXPECT_EQ(suppliers.load(), 1);
}

TEST(ParallelEval, ParallelPipelineWithMapAndFilter) {
  const auto seq = Stream<int>::range(0, 20000)
                       .map([](int v) { return v * 3; })
                       .filter([](int v) { return v % 2 == 0; })
                       .sum();
  const auto par = Stream<int>::range(0, 20000)
                       .parallel()
                       .map([](int v) { return v * 3; })
                       .filter([](int v) { return v % 2 == 0; })
                       .sum();
  EXPECT_EQ(par, seq);
}

}  // namespace
