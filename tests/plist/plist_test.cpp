// PList views, multiway spliterators, and n-way D&C functions.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "observe/critical_path.hpp"
#include "plist/functions.hpp"
#include "plist/multiway_spliterator.hpp"
#include "plist/plist_view.hpp"
#include "powerlist/collector_functions.hpp"
#include "support/rng.hpp"

namespace {

using namespace pls::plist;
using pls::forkjoin::ForkJoinPool;

std::vector<int> iota(std::size_t n, int start = 0) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), start);
  return v;
}

// ---- views ------------------------------------------------------------

TEST(PListView, PaperExampleTieAndZip) {
  // p.i = [i*3, i*3+1, i*3+2]: 3-way tie and zip of the paper.
  const std::vector<int> tied{0, 1, 2, 3, 4, 5, 6, 7, 8};
  const auto parts = PListView<const int>::over(tied).tie_n(3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].to_vector(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(parts[1].to_vector(), (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(parts[2].to_vector(), (std::vector<int>{6, 7, 8}));

  const std::vector<int> zipped{0, 3, 6, 1, 4, 7, 2, 5, 8};
  const auto zparts = PListView<const int>::over(zipped).zip_n(3);
  EXPECT_EQ(zparts[0].to_vector(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(zparts[1].to_vector(), (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(zparts[2].to_vector(), (std::vector<int>{6, 7, 8}));
}

TEST(PListView, JoinFunctionsInvertSplits) {
  const auto data = iota(12);
  const auto view = PListView<const int>::over(data);
  std::vector<std::vector<int>> tie_parts;
  for (const auto& p : view.tie_n(4)) tie_parts.push_back(p.to_vector());
  EXPECT_EQ(tie_join(tie_parts), data);
  std::vector<std::vector<int>> zip_parts;
  for (const auto& p : view.zip_n(4)) zip_parts.push_back(p.to_vector());
  EXPECT_EQ(zip_join(zip_parts), data);
}

TEST(PListView, NonDivisibleSplitRejected) {
  const auto data = iota(10);
  const auto view = PListView<const int>::over(data);
  EXPECT_THROW(view.tie_n(3), pls::precondition_error);
  EXPECT_TRUE(view.divisible_by(5));
  EXPECT_FALSE(view.divisible_by(3));
}

TEST(PListView, NonPowerOfTwoLengthsAllowed) {
  const auto data = iota(18);  // not a power of two: fine for PLists
  const auto parts = PListView<const int>::over(data).zip_n(3);
  EXPECT_EQ(parts[1].to_vector(), (std::vector<int>{1, 4, 7, 10, 13, 16}));
}

// ---- multiway spliterators ---------------------------------------------

template <typename T>
std::vector<T> drain(pls::streams::Spliterator<T>& sp) {
  std::vector<T> out;
  sp.for_each_remaining([&](const T& v) { out.push_back(v); });
  return out;
}

TEST(MultiwaySpliterator, NTieSplitsIntoSegments) {
  auto data = std::make_shared<const std::vector<int>>(iota(9));
  NTieSpliterator<int> sp(data);
  auto parts = sp.try_split_n(3);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(drain(*parts[0]), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(drain(*parts[1]), (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(drain(sp), (std::vector<int>{6, 7, 8}));
}

TEST(MultiwaySpliterator, NZipSplitsIntoResidues) {
  auto data = std::make_shared<const std::vector<int>>(iota(9));
  NZipSpliterator<int> sp(data);
  auto parts = sp.try_split_n(3);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(drain(*parts[0]), (std::vector<int>{0, 3, 6}));
  EXPECT_EQ(drain(*parts[1]), (std::vector<int>{1, 4, 7}));
  EXPECT_EQ(drain(sp), (std::vector<int>{2, 5, 8}));
}

TEST(MultiwaySpliterator, RefusesNonDivisibleArity) {
  auto data = std::make_shared<const std::vector<int>>(iota(10));
  NTieSpliterator<int> sp(data);
  EXPECT_TRUE(sp.try_split_n(3).empty());
  EXPECT_EQ(sp.estimate_size(), 10u);  // untouched after refusal
}

TEST(MultiwaySpliterator, BinarySplitFallback) {
  auto data = std::make_shared<const std::vector<int>>(iota(8));
  NTieSpliterator<int> sp(data);
  auto prefix = sp.try_split();
  ASSERT_NE(prefix, nullptr);
  EXPECT_EQ(drain(*prefix), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(drain(sp), (std::vector<int>{4, 5, 6, 7}));
}

TEST(MultiwayCollect, TieReconstructionAcrossArities) {
  const auto data = iota(81);  // 3^4: splits 3-ways all the way down
  for (std::size_t arity : {2u, 3u}) {
    auto shared = std::make_shared<const std::vector<int>>(data);
    std::unique_ptr<pls::streams::Spliterator<int>> sp =
        std::make_unique<NTieSpliterator<int>>(shared);
    const auto out = evaluate_collect_multiway(
        sp, pls::powerlist::to_power_array_tie<int>(), arity, true);
    EXPECT_EQ(out.values(), data) << "arity=" << arity;
  }
}

TEST(MultiwayCollect, SumAcrossArities) {
  const auto data = iota(64, 1);
  auto summing = pls::streams::make_collector<int>(
      [] { return 0L; }, [](long& acc, const int& v) { acc += v; },
      [](long& l, long& r) { l += r; });
  for (std::size_t arity : {2u, 4u, 8u}) {
    auto shared = std::make_shared<const std::vector<int>>(data);
    std::unique_ptr<pls::streams::Spliterator<int>> sp =
        std::make_unique<NZipSpliterator<int>>(shared);
    EXPECT_EQ(evaluate_collect_multiway(sp, summing, arity, true), 64 * 65 / 2)
        << "arity=" << arity;
  }
}

// ---- PList functions ----------------------------------------------------

TEST(PListFunctions, NWayReduceMatchesSequentialFold) {
  const auto data = iota(81, 1);
  const auto view = PListView<const int>::over(data);
  const long expected = 81 * 82 / 2;
  for (std::size_t ways : {2u, 3u, 9u}) {
    NWayReduce<int, std::plus<int>> sum{std::plus<int>{}, ways};
    EXPECT_EQ(execute_sequential(sum, view), expected) << "ways=" << ways;
  }
}

TEST(PListFunctions, NWayReduceForkJoin) {
  ForkJoinPool pool(4);
  const auto data = iota(243, 1);
  const auto view = PListView<const int>::over(data);
  NWayReduce<int, std::plus<int>> sum{std::plus<int>{}, 3};
  EXPECT_EQ(execute_forkjoin(pool, sum, view, {}, 9), 243 * 244 / 2);
}

TEST(PListFunctions, ForkJoinRecordsItsCriticalPathTree) {
  // The fork-join walk hands every node its critical-path node: a
  // profiled run sees all 27 leaves of 9 and every element.
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  ForkJoinPool pool(2);
  const auto data = iota(243, 1);
  const auto view = PListView<const int>::over(data);
  NWayReduce<int, std::plus<int>> sum{std::plus<int>{}, 3};
  pls::observe::ProfileSession profile;
  EXPECT_EQ(execute_forkjoin(pool, sum, view, {}, 9), 243 * 244 / 2);
  const auto stats = profile.stats();
  EXPECT_EQ(stats.leaves, 27u);
  EXPECT_EQ(stats.elements, 243u);
}

TEST(PListFunctions, NWayMapTieAndZipPreserveOrder) {
  const auto data = iota(27);
  const auto view = PListView<const int>::over(data);
  std::vector<int> expected;
  for (int v : data) expected.push_back(v * 10);
  {
    NWayMap<int, int, int (*)(const int&)> m(
        [](const int& v) { return v * 10; }, 3, NWayOp::kTie);
    EXPECT_EQ(execute_sequential(m, view), expected);
  }
  {
    NWayMap<int, int, int (*)(const int&)> m(
        [](const int& v) { return v * 10; }, 3, NWayOp::kZip);
    EXPECT_EQ(execute_sequential(m, view), expected);
  }
}

TEST(PListFunctions, KWayMerge) {
  const std::vector<std::vector<int>> runs{
      {1, 5, 9}, {2, 4, 8}, {0, 6, 7}, {3, 10, 11}};
  EXPECT_EQ(kway_merge(runs),
            (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
}

TEST(PListFunctions, KWayMergeWithEmptyRun) {
  const std::vector<std::vector<int>> runs{{2, 3}, {}, {1}};
  EXPECT_EQ(kway_merge(runs), (std::vector<int>{1, 2, 3}));
}

TEST(PListFunctions, MultiwayMergeSortSorts) {
  pls::Xoshiro256 rng(99);
  std::vector<int> data(3 * 3 * 3 * 3 * 2);
  for (auto& v : data) v = static_cast<int>(rng.next_below(10000));
  auto expected = data;
  std::sort(expected.begin(), expected.end());
  for (std::size_t ways : {2u, 3u}) {
    MultiwayMergeSort<int> sorter(ways);
    EXPECT_EQ(
        execute_sequential(sorter, PListView<const int>::over(data), {}, 2),
        expected)
        << "ways=" << ways;
  }
}

TEST(PListFunctions, MultiwayMergeSortForkJoinMatches) {
  ForkJoinPool pool(4);
  pls::Xoshiro256 rng(7);
  std::vector<int> data(729);
  for (auto& v : data) v = static_cast<int>(rng.next_below(100000));
  MultiwayMergeSort<int> sorter(3);
  const auto view = PListView<const int>::over(data);
  EXPECT_EQ(execute_forkjoin(pool, sorter, view, {}, 27),
            execute_sequential(sorter, view, {}, 27));
}

TEST(PListFunctions, ArityNotDividingLengthFallsToLeaf) {
  // Length 10 with arity 3: the function must still produce the right
  // result by treating the whole list as a basic case.
  const auto data = iota(10, 1);
  NWayReduce<int, std::plus<int>> sum{std::plus<int>{}, 3};
  EXPECT_EQ(execute_sequential(sum, PListView<const int>::over(data)), 55);
}

}  // namespace
