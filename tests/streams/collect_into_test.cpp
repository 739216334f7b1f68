// Destination-passing collect: admission, correctness against the
// supplier/combiner path, and the zero-copy guarantees the path exists
// for (no combine-phase movement, exactly one result-buffer allocation).
#include "streams/parallel_eval.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "observe/counters.hpp"
#include "streams/collectors.hpp"
#include "streams/sized_sink.hpp"
#include "streams/spliterators.hpp"
#include "streams/stream.hpp"

namespace {

using pls::observe::aggregate_counters;
using pls::observe::CounterTotals;
using pls::observe::kEnabled;
using pls::streams::ArraySpliterator;
using pls::streams::OutputWindow;
using pls::streams::SizedSinkCollector;
using pls::streams::Stream;
using pls::streams::VectorCollector;

std::vector<int> test_data(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = static_cast<int>((i * 2654435761u) % 1000);
  }
  return v;
}

// ---- admission ------------------------------------------------------

static_assert(SizedSinkCollector<VectorCollector<int>, int>,
              "VectorCollector must satisfy the sized-sink protocol");

/// The DPS window a collect over `sp` would be admitted with.
std::optional<OutputWindow> dps_window(
    std::unique_ptr<pls::streams::Spliterator<int>> sp) {
  const auto fp = pls::streams::fuse_source(std::move(sp));
  const auto plan = pls::streams::plan_fused_pipeline(
      *fp, pls::streams::TerminalKind::kCollect, /*collector_sized=*/true,
      /*chunk_collector=*/false, /*parallel=*/false,
      pls::streams::ExecutionConfig{}, pls::streams::PlanOrigin::kDynamic);
  return plan.dps ? plan.window : std::nullopt;
}

TEST(SizedSinkAdmission, PowerOfTwoArrayQualifies) {
  auto data = std::make_shared<const std::vector<int>>(test_data(8));
  const auto w = dps_window(std::make_unique<ArraySpliterator<int>>(data));
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->start, 0u);
  EXPECT_EQ(w->incr, 1u);
  EXPECT_EQ(w->count, 8u);
}

TEST(SizedSinkAdmission, NonPowerOfTwoFallsBack) {
  auto data = std::make_shared<const std::vector<int>>(test_data(6));
  EXPECT_FALSE(
      dps_window(std::make_unique<ArraySpliterator<int>>(data)).has_value());
}

TEST(SizedSinkAdmission, UnsizedSourceFallsBack) {
  auto sp = Stream<int>::of(test_data(8))
                .filter(std::function<bool(const int&)>(
                    [](const int&) { return true; }))
                .into_spliterator();
  EXPECT_FALSE(sp->has(pls::streams::kSized));
  EXPECT_FALSE(dps_window(std::move(sp)).has_value());
}

// ---- the zero-copy guarantee ----------------------------------------

TEST(CollectInto, ParallelPower2MovesNothingAllocatesOnce) {
  const auto data = test_data(1 << 10);
  const CounterTotals before = aggregate_counters();
  const auto out =
      Stream<int>::of(data).parallel().with_min_chunk(64).to_vector();
  const CounterTotals delta = aggregate_counters() - before;
  EXPECT_EQ(out, data);
  if (kEnabled) {
    EXPECT_EQ(delta.combines, 0u) << "DPS collect must not combine";
    EXPECT_EQ(delta.bytes_moved, 0u) << "DPS collect must not move elements";
    EXPECT_EQ(delta.allocations, 1u)
        << "DPS collect must allocate the result exactly once";
    EXPECT_GT(delta.splits, 0u) << "the run should actually have split";
  }
}

TEST(CollectInto, SequentialPower2AlsoTakesSizedSink) {
  const auto data = test_data(1 << 8);
  const CounterTotals before = aggregate_counters();
  const auto out = Stream<int>::of(data).to_vector();
  const CounterTotals delta = aggregate_counters() - before;
  EXPECT_EQ(out, data);
  if (kEnabled) {
    EXPECT_EQ(delta.combines, 0u);
    EXPECT_EQ(delta.bytes_moved, 0u);
    EXPECT_EQ(delta.allocations, 1u);
  }
}

TEST(CollectInto, ForcedLegacyPathMovesElements) {
  const auto data = test_data(1 << 10);
  const CounterTotals before = aggregate_counters();
  const auto out = Stream<int>::of(data)
                       .parallel()
                       .with_min_chunk(64)
                       .with_sized_sink(false)
                       .to_vector();
  const CounterTotals delta = aggregate_counters() - before;
  EXPECT_EQ(out, data);
  if (kEnabled) {
    EXPECT_GT(delta.combines, 0u)
        << "with the sized sink disabled the combiner must run";
    EXPECT_GT(delta.bytes_moved, 0u);
    EXPECT_GT(delta.allocations, 1u) << "one container per leaf chunk";
  }
}

// ---- equivalence of the two paths -----------------------------------

class PathEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PathEquivalence, SizedSinkMatchesSupplierCombiner) {
  const auto data = test_data(GetParam());
  const auto dps =
      Stream<int>::of(data).parallel().with_min_chunk(8).to_vector();
  const auto legacy = Stream<int>::of(data)
                          .parallel()
                          .with_min_chunk(8)
                          .with_sized_sink(false)
                          .to_vector();
  EXPECT_EQ(dps, legacy);
  EXPECT_EQ(dps, data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PathEquivalence,
                         ::testing::Values(0, 1, 2, 3, 6, 7, 8, 63, 64, 100,
                                           255, 256, 1000, 1024));

// ---- pipelines and window delegation --------------------------------

TEST(CollectInto, MapPipelineDelegatesWindow) {
  const auto data = test_data(1 << 9);
  const CounterTotals before = aggregate_counters();
  const auto out = Stream<int>::of(data)
                       .parallel()
                       .with_min_chunk(32)
                       .map([](int v) { return v * 3 + 1; })
                       .to_vector();
  const CounterTotals delta = aggregate_counters() - before;
  ASSERT_EQ(out.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(out[i], data[i] * 3 + 1);
  }
  if (kEnabled) {
    EXPECT_EQ(delta.combines, 0u)
        << "map is 1:1, so the window passes through and DPS still applies";
    EXPECT_EQ(delta.allocations, 1u);
  }
}

TEST(CollectInto, FilterPipelineFallsBackCorrectly) {
  const auto data = test_data(1 << 9);
  const auto out = Stream<int>::of(data)
                       .parallel()
                       .with_min_chunk(32)
                       .filter([](int v) { return v % 2 == 0; })
                       .to_vector();
  std::vector<int> expected;
  for (int v : data) {
    if (v % 2 == 0) expected.push_back(v);
  }
  EXPECT_EQ(out, expected);
}

TEST(CollectInto, RangeAndGenerateSourcesQualify) {
  const auto ranged = Stream<std::uint64_t>::range(0, 1 << 8)
                          .parallel()
                          .to_vector();
  ASSERT_EQ(ranged.size(), 256u);
  for (std::uint64_t i = 0; i < 256; ++i) EXPECT_EQ(ranged[i], i);

  const CounterTotals before = aggregate_counters();
  const auto generated =
      Stream<std::uint64_t>::generate([](std::uint64_t i) { return i * i; },
                                      1 << 8)
          .parallel()
          .with_min_chunk(16)
          .to_vector();
  const CounterTotals delta = aggregate_counters() - before;
  for (std::uint64_t i = 0; i < 256; ++i) EXPECT_EQ(generated[i], i * i);
  if (kEnabled) EXPECT_EQ(delta.combines, 0u);
}

// ---- non-default-constructible elements (SizedBuffer representation) --

struct NoDefault {
  explicit NoDefault(int x) : value(x) {}
  int value;
  friend bool operator==(const NoDefault& a, const NoDefault& b) {
    return a.value == b.value;
  }
};

TEST(CollectInto, NonDefaultConstructibleUsesBufferedSink) {
  static_assert(!std::is_default_constructible_v<NoDefault>);
  static_assert(SizedSinkCollector<VectorCollector<NoDefault>, NoDefault>);
  std::vector<NoDefault> data;
  for (int i = 0; i < (1 << 8); ++i) data.push_back(NoDefault(i));
  const CounterTotals before = aggregate_counters();
  const auto out =
      Stream<NoDefault>::of(data).parallel().with_min_chunk(16).to_vector();
  const CounterTotals delta = aggregate_counters() - before;
  EXPECT_EQ(out, data);
  if (kEnabled) {
    EXPECT_EQ(delta.combines, 0u);
    EXPECT_EQ(delta.bytes_moved, 0u)
        << "bytes_moved counts combine movement, not the final fill";
    EXPECT_EQ(delta.allocations, 2u)
        << "buffered sink: the SizedBuffer plus the result vector";
  }
}

// ---- sub-window sources through evaluate() ----------------------------

TEST(CollectInto, ExplicitRootWindowOnSubWindowSource) {
  // A spliterator over the middle of a larger array reports a window with
  // nonzero start; the evaluator must rebase it to fill the result from 0.
  auto storage = std::make_shared<const std::vector<int>>(test_data(64));
  auto fp = pls::streams::fuse_source<int>(
      std::make_unique<ArraySpliterator<int>>(storage, 16, 48));  // start 16
  auto out = pls::streams::evaluate<int>(
      *fp, pls::streams::terminals::collect(VectorCollector<int>{}),
      /*parallel=*/true,
      pls::streams::ExecutionConfig{}.with_min_chunk(4));
  const auto& plan = pls::streams::last_plan();
  ASSERT_TRUE(plan.dps);
  ASSERT_TRUE(plan.window.has_value());
  EXPECT_EQ(plan.window->start, 16u);
  EXPECT_EQ(plan.window->count, 32u);
  ASSERT_EQ(out.size(), 32u);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(out[i], (*storage)[16 + i]);
  }
}

}  // namespace
