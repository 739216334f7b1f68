#include "streams/spliterators.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <numeric>
#include <vector>

namespace {

using pls::streams::ArraySpliterator;
using pls::streams::ConcatSpliterator;
using pls::streams::GenerateSpliterator;
using pls::streams::RangeSpliterator;
using pls::streams::Spliterator;

std::shared_ptr<const std::vector<int>> shared_iota(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return std::make_shared<const std::vector<int>>(std::move(v));
}

template <typename T>
std::vector<T> drain(Spliterator<T>& sp) {
  std::vector<T> out;
  sp.for_each_remaining([&](const T& v) { out.push_back(v); });
  return out;
}

TEST(ArraySpliterator, TraversesInOrder) {
  ArraySpliterator<int> sp(shared_iota(5));
  EXPECT_EQ(drain(sp), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ArraySpliterator, TryAdvanceConsumesOneAtATime) {
  ArraySpliterator<int> sp(shared_iota(3));
  std::vector<int> seen;
  EXPECT_TRUE(sp.try_advance([&](const int& v) { seen.push_back(v); }));
  EXPECT_TRUE(sp.try_advance([&](const int& v) { seen.push_back(v); }));
  EXPECT_TRUE(sp.try_advance([&](const int& v) { seen.push_back(v); }));
  EXPECT_FALSE(sp.try_advance([&](const int& v) { seen.push_back(v); }));
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
}

TEST(ArraySpliterator, SplitReturnsPrefix) {
  ArraySpliterator<int> sp(shared_iota(8));
  auto prefix = sp.try_split();
  ASSERT_NE(prefix, nullptr);
  EXPECT_EQ(drain(*prefix), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(drain(sp), (std::vector<int>{4, 5, 6, 7}));
}

TEST(ArraySpliterator, SplitSizesAreExact) {
  ArraySpliterator<int> sp(shared_iota(10));
  EXPECT_EQ(sp.estimate_size(), 10u);
  auto prefix = sp.try_split();
  EXPECT_EQ(prefix->estimate_size(), 5u);
  EXPECT_EQ(sp.estimate_size(), 5u);
}

TEST(ArraySpliterator, OddSplitKeepsAllElements) {
  ArraySpliterator<int> sp(shared_iota(7));
  auto prefix = sp.try_split();
  auto left = drain(*prefix);
  auto right = drain(sp);
  left.insert(left.end(), right.begin(), right.end());
  EXPECT_EQ(left, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(ArraySpliterator, SingletonDoesNotSplit) {
  ArraySpliterator<int> sp(shared_iota(1));
  EXPECT_EQ(sp.try_split(), nullptr);
}

TEST(ArraySpliterator, RecursiveSplitToSingletons) {
  constexpr int n = 16;
  std::vector<std::unique_ptr<Spliterator<int>>> parts;
  parts.push_back(std::make_unique<ArraySpliterator<int>>(shared_iota(n)));
  for (std::size_t i = 0; i < parts.size();) {
    if (auto p = parts[i]->try_split()) {
      parts.push_back(std::move(p));
    } else {
      ++i;
    }
  }
  std::vector<int> all;
  for (auto& p : parts) {
    for (int v : drain(*p)) all.push_back(v);
  }
  std::sort(all.begin(), all.end());
  std::vector<int> expect(n);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(all, expect);
}

TEST(ArraySpliterator, HasSizedOrderedCharacteristics) {
  ArraySpliterator<int> sp(shared_iota(4));
  EXPECT_TRUE(sp.has(pls::streams::kSized));
  EXPECT_TRUE(sp.has(pls::streams::kOrdered));
  EXPECT_TRUE(sp.has(pls::streams::kSubsized));
  EXPECT_FALSE(sp.has(pls::streams::kPower2));
}

TEST(ArraySpliterator, WindowOutOfRangeThrows) {
  auto data = shared_iota(4);
  EXPECT_THROW(ArraySpliterator<int>(data, 2, 9), pls::precondition_error);
}

TEST(RangeSpliterator, ProducesRange) {
  RangeSpliterator<long> sp(3, 9);
  EXPECT_EQ(drain(sp), (std::vector<long>{3, 4, 5, 6, 7, 8}));
}

TEST(RangeSpliterator, EmptyRange) {
  RangeSpliterator<int> sp(5, 5);
  EXPECT_EQ(sp.estimate_size(), 0u);
  EXPECT_FALSE(sp.try_advance([](const int&) {}));
}

TEST(RangeSpliterator, SplitCoversRange) {
  RangeSpliterator<int> sp(0, 100);
  auto prefix = sp.try_split();
  auto left = drain(*prefix);
  auto right = drain(sp);
  EXPECT_EQ(left.size() + right.size(), 100u);
  EXPECT_EQ(left.front(), 0);
  EXPECT_EQ(right.back(), 99);
  EXPECT_EQ(left.back() + 1, right.front());
}

TEST(RangeSpliterator, SortedDistinctCharacteristics) {
  RangeSpliterator<int> sp(0, 4);
  EXPECT_TRUE(sp.has(pls::streams::kSorted));
  EXPECT_TRUE(sp.has(pls::streams::kDistinct));
}

TEST(GenerateSpliterator, AppliesGenerator) {
  auto fn = std::make_shared<const std::function<int(std::uint64_t)>>(
      [](std::uint64_t i) { return static_cast<int>(i * i); });
  GenerateSpliterator<int, std::function<int(std::uint64_t)>> sp(fn, 0, 5);
  EXPECT_EQ(drain(sp), (std::vector<int>{0, 1, 4, 9, 16}));
}

TEST(GenerateSpliterator, SplitSharesGenerator) {
  auto fn = std::make_shared<const std::function<int(std::uint64_t)>>(
      [](std::uint64_t i) { return static_cast<int>(2 * i); });
  GenerateSpliterator<int, std::function<int(std::uint64_t)>> sp(fn, 0, 8);
  auto prefix = sp.try_split();
  EXPECT_EQ(drain(*prefix), (std::vector<int>{0, 2, 4, 6}));
  EXPECT_EQ(drain(sp), (std::vector<int>{8, 10, 12, 14}));
}

// ---- the bulk hook: try_chunk ----------------------------------------

TEST(ArraySpliterator, ChunkIsTheStoragePointerAndLeavesScratchAlone) {
  auto data = shared_iota(10);
  ArraySpliterator<int> sp(data, 2, 10);
  std::vector<int> scratch(4, -1);
  const auto [p, n] = sp.try_chunk(scratch.data(), 4);
  EXPECT_EQ(p, data->data() + 2);
  EXPECT_EQ(n, 4u);
  const auto [q, m] = sp.try_chunk(nullptr, ~std::size_t{0});
  EXPECT_EQ(q, data->data() + 6);
  EXPECT_EQ(m, 4u);
  EXPECT_EQ(sp.try_chunk(scratch.data(), 4).first, nullptr);
  EXPECT_EQ(scratch, std::vector<int>(4, -1));
}

TEST(RangeSpliterator, ComputedSourceDeclinesTheChunkHook) {
  RangeSpliterator<int> sp(0, 8);
  std::vector<int> scratch(8);
  const auto [p, n] = sp.try_chunk(scratch.data(), 8);
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(drain(sp), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ConcatSpliterator, ForwardsStorageChunksOfBothPartsInOrder) {
  auto lo = shared_iota(5);
  auto hi = shared_iota(7);
  ConcatSpliterator<int> sp(std::make_unique<ArraySpliterator<int>>(lo),
                            std::make_unique<ArraySpliterator<int>>(hi));
  std::vector<int> scratch(3, -1);
  std::vector<const int*> starts;
  std::vector<int> out;
  for (;;) {
    const auto [p, n] = sp.try_chunk(scratch.data(), 3);
    if (p == nullptr) break;
    ASSERT_LE(n, 3u);
    starts.push_back(p);
    out.insert(out.end(), p, p + n);
  }
  // 5 = 3 + 2 from the first part, 7 = 3 + 3 + 1 from the second: chunks
  // never straddle the seam, and every one points into its part.
  EXPECT_EQ(starts, (std::vector<const int*>{
                        lo->data(), lo->data() + 3, hi->data(),
                        hi->data() + 3, hi->data() + 6}));
  std::vector<int> expected = *lo;
  expected.insert(expected.end(), hi->begin(), hi->end());
  EXPECT_EQ(out, expected);
  EXPECT_EQ(scratch, std::vector<int>(3, -1));
}

TEST(ConcatSpliterator, DecliningFirstPartLeavesTheRestToTraversal) {
  auto hi = shared_iota(3);
  ConcatSpliterator<int> sp(std::make_unique<RangeSpliterator<int>>(10, 12),
                            std::make_unique<ArraySpliterator<int>>(hi));
  std::vector<int> scratch(4);
  EXPECT_EQ(sp.try_chunk(scratch.data(), 4).first, nullptr);
  EXPECT_EQ(drain(sp), (std::vector<int>{10, 11, 0, 1, 2}));
}

}  // namespace
