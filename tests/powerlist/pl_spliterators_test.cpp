#include "powerlist/spliterators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <numeric>
#include <vector>

#include "streams/sink.hpp"
#include "streams/spliterators.hpp"

namespace {

using pls::powerlist::SpliteratorPower2;
using pls::powerlist::TieSpliterator;
using pls::powerlist::ZipSpliterator;
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

TEST(TieSpliterator, TraversesInOrder) {
  TieSpliterator<int> sp(shared_iota(8));
  EXPECT_EQ(drain(sp), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(TieSpliterator, SplitIsSegmented) {
  TieSpliterator<int> sp(shared_iota(8));
  auto prefix = sp.try_split();
  ASSERT_NE(prefix, nullptr);
  EXPECT_EQ(drain(*prefix), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(drain(sp), (std::vector<int>{4, 5, 6, 7}));
}

TEST(ZipSpliterator, SplitIsInterleaved) {
  ZipSpliterator<int> sp(shared_iota(8));
  auto prefix = sp.try_split();
  ASSERT_NE(prefix, nullptr);
  EXPECT_EQ(drain(*prefix), (std::vector<int>{0, 2, 4, 6}));
  EXPECT_EQ(drain(sp), (std::vector<int>{1, 3, 5, 7}));
}

TEST(ZipSpliterator, DoubleSplitQuartersByResidue) {
  ZipSpliterator<int> sp(shared_iota(16));
  auto evens = sp.try_split();       // residue 0 mod 2
  auto evens2 = evens->try_split();  // residue 0 mod 4
  auto odds2 = sp.try_split();       // residue 1 mod 4
  EXPECT_EQ(drain(*evens2), (std::vector<int>{0, 4, 8, 12}));
  EXPECT_EQ(drain(*evens), (std::vector<int>{2, 6, 10, 14}));
  EXPECT_EQ(drain(*odds2), (std::vector<int>{1, 5, 9, 13}));
  EXPECT_EQ(drain(sp), (std::vector<int>{3, 7, 11, 15}));
}

TEST(ZipSpliterator, RefusesOddCount) {
  // A strided window of odd length cannot zip-deconstruct.
  auto data = shared_iota(3);
  ZipSpliterator<int> sp(data, 0, 1, 3);
  EXPECT_EQ(sp.try_split(), nullptr);
}

TEST(SpliteratorPower2, Power2CharacteristicTracksCount) {
  auto data = shared_iota(8);
  TieSpliterator<int> sp8(data, 0, 1, 8);
  EXPECT_TRUE(sp8.has(pls::streams::kPower2));
  TieSpliterator<int> sp6(data, 0, 1, 6);
  EXPECT_FALSE(sp6.has(pls::streams::kPower2));
}

TEST(SpliteratorPower2, SplitsOfPowerOfTwoKeepPower2) {
  ZipSpliterator<int> sp(shared_iota(16));
  auto prefix = sp.try_split();
  EXPECT_TRUE(prefix->has(pls::streams::kPower2));
  EXPECT_TRUE(sp.has(pls::streams::kPower2));
}

TEST(SpliteratorPower2, EstimateSizeIsExact) {
  ZipSpliterator<int> sp(shared_iota(32));
  EXPECT_EQ(sp.estimate_size(), 32u);
  auto prefix = sp.try_split();
  EXPECT_EQ(prefix->estimate_size(), 16u);
  EXPECT_EQ(sp.estimate_size(), 16u);
}

TEST(SpliteratorPower2, WindowValidation) {
  auto data = shared_iota(8);
  // start 4, stride 2, count 3 touches index 4+2*2=8 -> out of range.
  EXPECT_THROW(TieSpliterator<int>(data, 4, 2, 3), pls::precondition_error);
  // count 2 touches 4 and 6: fine.
  TieSpliterator<int> ok(data, 4, 2, 2);
  EXPECT_EQ(drain(ok), (std::vector<int>{4, 6}));
}

TEST(SpliteratorPower2, TryAdvanceThenSplitConsistent) {
  ZipSpliterator<int> sp(shared_iota(8));
  int first = -1;
  sp.try_advance([&](const int& v) { first = v; });
  EXPECT_EQ(first, 0);
  // 7 elements remain: odd count, zip refuses to split.
  EXPECT_EQ(sp.try_split(), nullptr);
  EXPECT_EQ(drain(sp), (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(TieZipSpliterators, FullRecursiveSplitPartitionsSource) {
  // Split a zip spliterator down to singletons; union must be the source.
  constexpr int n = 32;
  std::vector<std::unique_ptr<Spliterator<int>>> parts;
  parts.push_back(std::make_unique<ZipSpliterator<int>>(shared_iota(n)));
  for (std::size_t i = 0; i < parts.size();) {
    if (auto p = parts[i]->try_split()) {
      parts.push_back(std::move(p));
    } else {
      ++i;
    }
  }
  EXPECT_EQ(parts.size(), static_cast<std::size_t>(n));
  std::vector<int> all;
  for (auto& p : parts) {
    for (int v : drain(*p)) all.push_back(v);
  }
  std::sort(all.begin(), all.end());
  std::vector<int> expect(n);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(all, expect);
}

// ---- the bulk hook: try_chunk ----------------------------------------

/// Pull every remaining element through try_chunk with a scratch buffer of
/// `cap` elements, checking each span's length against the cap.
template <typename T>
std::vector<T> drain_chunks(Spliterator<T>& sp, std::size_t cap) {
  std::vector<T> scratch(cap);
  std::vector<T> out;
  for (;;) {
    const auto [p, n] = sp.try_chunk(scratch.data(), cap);
    if (p == nullptr) break;
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, cap);
    out.insert(out.end(), p, p + n);
  }
  EXPECT_EQ(sp.estimate_size(), 0u);
  return out;
}

/// The elements of an iota-backed window, computed from its triple.
std::vector<int> window_of(std::size_t start, std::size_t incr,
                           std::size_t count) {
  std::vector<int> v(count);
  for (std::size_t k = 0; k < count; ++k) {
    v[k] = static_cast<int>(start + k * incr);
  }
  return v;
}

TEST(SpliteratorPower2, UnitStrideChunkIsTheStoragePointer) {
  auto data = shared_iota(64);
  TieSpliterator<int> sp(data, 8, 1, 40);
  std::vector<int> scratch(16, -1);
  const auto [p, n] = sp.try_chunk(scratch.data(), 16);
  EXPECT_EQ(p, data->data() + 8);
  EXPECT_EQ(n, 16u);
  // Without a scratch buffer the contiguous rest still comes out whole.
  const auto [q, m] = sp.try_chunk(nullptr, ~std::size_t{0});
  EXPECT_EQ(q, data->data() + 24);
  EXPECT_EQ(m, 24u);
  EXPECT_EQ(sp.try_chunk(scratch.data(), 16).first, nullptr);
  EXPECT_EQ(scratch, std::vector<int>(16, -1));
}

TEST(SpliteratorPower2, StridedChunkDeclinesWithoutScratch) {
  ZipSpliterator<int> sp(shared_iota(32));
  auto evens = sp.try_split();
  const auto [p, n] = evens->try_chunk(nullptr, 8);
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(evens->estimate_size(), 16u);  // nothing consumed
  EXPECT_EQ(drain(*evens), window_of(0, 2, 16));
}

TEST(SpliteratorPower2, StridedWindowsGatherInOrderAcrossChunks) {
  // Every stride 2..16, windows several kFusionChunk spans long, entered
  // after 0, 1 or 5 try_advance steps so the gathered spans start off the
  // chunk grid; a small cap adds many more span boundaries.
  constexpr std::size_t kChunk = pls::streams::kFusionChunk;
  const std::size_t count = 3 * kChunk + 17;
  auto data = shared_iota(static_cast<int>(16 * count + 16));
  for (std::size_t incr = 2; incr <= 16; ++incr) {
    for (const std::size_t skip : {0u, 1u, 5u}) {
      for (const std::size_t cap : {kChunk, std::size_t{7}}) {
        TieSpliterator<int> sp(data, incr - 1, incr, count);
        std::vector<int> got;
        for (std::size_t k = 0; k < skip; ++k) {
          sp.try_advance([&](const int& v) { got.push_back(v); });
        }
        const auto rest = drain_chunks(sp, cap);
        got.insert(got.end(), rest.begin(), rest.end());
        EXPECT_EQ(got, window_of(incr - 1, incr, count))
            << "incr=" << incr << " skip=" << skip << " cap=" << cap;
      }
    }
  }
}

TEST(ZipSpliterator, SplitProductsGatherTheirResidueClass) {
  // Zip split products at strides 2, 4, 8 and 16: each leaf's gathered
  // chunks are exactly its residue class, in order, across chunk spans.
  constexpr std::size_t kChunk = pls::streams::kFusionChunk;
  const std::size_t n = 16 * 2 * kChunk;
  for (std::size_t stride = 2; stride <= 16; stride *= 2) {
    std::vector<std::unique_ptr<Spliterator<int>>> leaves;
    leaves.push_back(
        std::make_unique<ZipSpliterator<int>>(shared_iota(static_cast<int>(n))));
    while (leaves.front()->estimate_size() > n / stride) {
      std::vector<std::unique_ptr<Spliterator<int>>> next;
      for (auto& leaf : leaves) {
        next.push_back(leaf->try_split());
        next.push_back(std::move(leaf));
      }
      leaves = std::move(next);
    }
    ASSERT_EQ(leaves.size(), stride);
    std::vector<int> all;
    for (auto& leaf : leaves) {
      auto* zip = dynamic_cast<ZipSpliterator<int>*>(leaf.get());
      ASSERT_NE(zip, nullptr);
      ASSERT_EQ(zip->increment(), stride);
      const auto expected =
          window_of(zip->start(), zip->increment(), zip->count());
      int first = -1;
      ASSERT_TRUE(leaf->try_advance([&](const int& v) { first = v; }));
      EXPECT_EQ(first, expected.front());
      const auto rest = drain_chunks(*leaf, kChunk);
      EXPECT_TRUE(std::equal(rest.begin(), rest.end(), expected.begin() + 1,
                             expected.end()))
          << "stride=" << stride;
      all.push_back(first);
      all.insert(all.end(), rest.begin(), rest.end());
    }
    std::sort(all.begin(), all.end());
    EXPECT_EQ(all, window_of(0, 1, n));
  }
}

TEST(ZipSpliterator, ReportsInterleavedAndTieDoesNot) {
  ZipSpliterator<int> zip(shared_iota(16));
  EXPECT_TRUE(zip.has(pls::streams::kInterleaved));
  EXPECT_TRUE(zip.try_split()->has(pls::streams::kInterleaved));
  TieSpliterator<int> tie(shared_iota(16));
  EXPECT_FALSE(tie.has(pls::streams::kInterleaved));
}

TEST(ZipSpliterator, ConcatForwardsGatheredSpansBitIdentically) {
  // A concat of two zip split products gathers through the caller's
  // scratch part by part; the result matches element traversal.
  ZipSpliterator<int> a(shared_iota(64));
  ZipSpliterator<int> b(shared_iota(32));
  pls::streams::ConcatSpliterator<int> cat(a.try_split(), b.try_split());
  ZipSpliterator<int> a2(shared_iota(64));
  ZipSpliterator<int> b2(shared_iota(32));
  pls::streams::ConcatSpliterator<int> ref(a2.try_split(), b2.try_split());
  EXPECT_EQ(drain_chunks(cat, 5), drain(ref));
}

}  // namespace
