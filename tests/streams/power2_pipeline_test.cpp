// The POWER2 characteristic through the pipeline: the paper's admission
// check ("verify that we work with a stream on which we may apply
// PowerList functions") must survive size-preserving operations and be
// dropped by size-changing ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "powerlist/collector_functions.hpp"
#include "powerlist/spliterators.hpp"
#include "streams/static_fusion.hpp"
#include "streams/stream.hpp"

namespace {

using pls::powerlist::TieSpliterator;
using pls::powerlist::ZipSpliterator;
using pls::streams::kPower2;
using pls::streams::Stream;
namespace stream_support = pls::streams::stream_support;

std::shared_ptr<const std::vector<double>> shared_n(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 0.0);
  return std::make_shared<const std::vector<double>>(std::move(v));
}

Stream<double> power2_stream(std::size_t n, bool parallel = true) {
  return stream_support::from_spliterator<double>(
      std::make_unique<ZipSpliterator<double>>(shared_n(n)), parallel);
}

TEST(Power2Pipeline, SourceHasIt) {
  EXPECT_TRUE(pls::streams::has_characteristics(
      power2_stream(64).characteristics(), kPower2));
  EXPECT_FALSE(pls::streams::has_characteristics(
      stream_support::from_spliterator<double>(
          std::make_unique<ZipSpliterator<double>>(shared_n(48)), true)
          .characteristics(),
      kPower2));
}

TEST(Power2Pipeline, MapPreservesIt) {
  auto s = power2_stream(32).map([](double d) { return d * 2.0; });
  EXPECT_TRUE(pls::streams::has_characteristics(s.characteristics(),
                                                kPower2));
}

TEST(Power2Pipeline, PeekPreservesIt) {
  auto s = power2_stream(32).peek([](const double&) {});
  EXPECT_TRUE(pls::streams::has_characteristics(s.characteristics(),
                                                kPower2));
}

TEST(Power2Pipeline, FilterDropsIt) {
  auto s = power2_stream(32).filter([](double) { return true; });
  EXPECT_FALSE(pls::streams::has_characteristics(s.characteristics(),
                                                 kPower2));
}

TEST(Power2Pipeline, LimitDropsIt) {
  auto s = power2_stream(32).limit(16);
  EXPECT_FALSE(pls::streams::has_characteristics(s.characteristics(),
                                                 kPower2));
}

/// Stream::characteristics() and estimate_size() per op, pinned to the
/// masks and sizes each op has always reported: one row per op over a
/// 64-element zip source (which carries POWER2 and INTERLEAVED), plus a
/// range source (which carries SORTED and DISTINCT) for the ops that
/// drop or keep those. The stateless ops also appear in their static
/// spelling (`.stages(stages::X(...)).to_stream()`), which must report
/// exactly what the dynamic op does.
TEST(Power2Pipeline, CharacteristicsPerOpMatchTable) {
  using namespace pls::streams;
  constexpr Characteristics kZip =
      kOrdered | kSized | kSubsized | kImmutable | kPower2 | kInterleaved;
  constexpr Characteristics kRange =
      kOrdered | kSized | kSubsized | kImmutable | kDistinct | kSorted;
  using Facts = std::pair<Characteristics, std::uint64_t>;
  const auto facts = [](const auto& s) {
    return Facts{s.characteristics(), s.estimate_size()};
  };
  const auto zip = [] { return power2_stream(64, false); };
  const auto range = [] { return Stream<long>::range(0, 64); };
  const auto keep = [](const auto&) { return true; };
  const auto small = [](const auto& v) { return v < 10; };
  const auto twice = [](const auto& v) {
    return std::vector<std::decay_t<decltype(v)>>{v, v};
  };
  namespace st = pls::streams::stages;
  struct Row {
    std::string op;
    std::function<Facts()> actual;
    Facts expected;
  };
  const std::vector<Row> rows = {
      {"zip", [&] { return facts(zip()); }, {kZip, 64}},
      {"zip.map",
       [&] { return facts(zip().map([](double d) { return d + 1; })); },
       {kZip, 64}},
      {"zip.peek",
       [&] { return facts(zip().peek([](const double&) {})); },
       {kZip, 64}},
      {"zip.filter", [&] { return facts(zip().filter(keep)); },
       {kOrdered | kImmutable | kInterleaved, 64}},
      {"zip.flat_map",
       [&] {
         return facts(zip().flat_map(
             [](const double& d) { return std::vector<double>{d, d}; }));
       },
       {kOrdered | kImmutable | kInterleaved, 64}},
      {"zip.stages(map)",
       [&] {
         return facts(zip()
                          .stages(st::map([](double d) { return d + 1; }))
                          .to_stream());
       },
       {kZip, 64}},
      {"zip.stages(peek)",
       [&] {
         return facts(
             zip().stages(st::peek([](const double&) {})).to_stream());
       },
       {kZip, 64}},
      {"zip.stages(filter)",
       [&] { return facts(zip().stages(st::filter(keep)).to_stream()); },
       {kOrdered | kImmutable | kInterleaved, 64}},
      {"zip.stages(flat_map)",
       [&] { return facts(zip().stages(st::flat_map(twice)).to_stream()); },
       {kOrdered | kImmutable | kInterleaved, 64}},
      {"zip.limit(10)", [&] { return facts(zip().limit(10)); },
       {kOrdered | kSized | kImmutable | kInterleaved, 10}},
      {"zip.skip(10)", [&] { return facts(zip().skip(10)); },
       {kOrdered | kSized | kImmutable | kInterleaved, 54}},
      {"zip.take_while", [&] { return facts(zip().take_while(small)); },
       {kOrdered | kImmutable | kInterleaved, 64}},
      {"zip.drop_while", [&] { return facts(zip().drop_while(small)); },
       {kOrdered | kImmutable | kInterleaved, 64}},
      {"zip.distinct", [&] { return facts(zip().distinct()); },
       {kOrdered | kImmutable | kInterleaved | kDistinct, 64}},
      {"zip.filter.sorted",
       [&] {
         return facts(zip().filter([](double d) { return d < 40; }).sorted());
       },
       {kOrdered | kSized | kSubsized | kImmutable | kSorted, 40}},
      {"concat(zip, zip.map)",
       [&] {
         return facts(Stream<double>::concat(
             zip(), zip().map([](double d) { return -d; })));
       },
       {kOrdered | kSized | kSubsized | kImmutable, 128}},
      {"range", [&] { return facts(range()); }, {kRange, 64}},
      {"range.map",
       [&] { return facts(range().map([](long v) { return v * 2; })); },
       {kOrdered | kSized | kSubsized | kImmutable, 64}},
      {"range.filter", [&] { return facts(range().filter(keep)); },
       {kOrdered | kImmutable | kDistinct | kSorted, 64}},
      {"range.stages(map)",
       [&] {
         return facts(range()
                          .stages(st::map([](long v) { return v * 2; }))
                          .to_stream());
       },
       {kOrdered | kSized | kSubsized | kImmutable, 64}},
      {"range.peek", [&] { return facts(range().peek([](const long&) {})); },
       {kRange, 64}},
      {"range.stages(peek)",
       [&] {
         return facts(
             range().stages(st::peek([](const long&) {})).to_stream());
       },
       {kRange, 64}},
      {"range.stages(filter)",
       [&] { return facts(range().stages(st::filter(keep)).to_stream()); },
       {kOrdered | kImmutable | kDistinct | kSorted, 64}},
      {"range.flat_map", [&] { return facts(range().flat_map(twice)); },
       {kOrdered | kImmutable, 64}},
      {"range.stages(flat_map)",
       [&] {
         return facts(range().stages(st::flat_map(twice)).to_stream());
       },
       {kOrdered | kImmutable, 64}},
      {"range.limit(70)", [&] { return facts(range().limit(70)); },
       {kOrdered | kSized | kImmutable | kDistinct | kSorted, 64}},
      {"range.distinct", [&] { return facts(range().distinct()); },
       {kOrdered | kImmutable | kDistinct | kSorted, 64}},
      {"iterate.limit(5)",
       [&] {
         return facts(
             Stream<long>::iterate(1L, [](long v) { return v + 1; }).limit(5));
       },
       {kOrdered, 5}},
      {"iterate",
       [&] {
         return facts(Stream<long>::iterate(1L, [](long v) { return v; }));
       },
       {kOrdered, std::numeric_limits<std::uint64_t>::max()}},
  };
  for (const Row& row : rows) {
    const Facts got = row.actual();
    EXPECT_EQ(got.first, row.expected.first) << row.op;
    EXPECT_EQ(got.second, row.expected.second) << row.op;
  }
}

TEST(Power2Pipeline, MapThenPowerCollectorStillReconstructs) {
  // A mapped power-of-two stream is still PowerList-collectable: the
  // mapped pipeline splits like its zip source, so zip_all
  // recombination reproduces the mapped sequence in order.
  const std::size_t n = 64;
  auto out = power2_stream(n)
                 .with_min_chunk(2)
                 .map([](double d) { return d + 100.0; })
                 .collect(pls::powerlist::to_power_array_zip<double>());
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) + 100.0);
  }
}

TEST(Power2Pipeline, TieSourceMapCollect) {
  const std::size_t n = 128;
  auto s = stream_support::from_spliterator<double>(
      std::make_unique<TieSpliterator<double>>(shared_n(n)), true);
  auto out = std::move(s)
                 .with_min_chunk(8)
                 .map([](double d) { return -d; })
                 .collect(pls::powerlist::to_power_array_tie<double>());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(out[i], -static_cast<double>(i));
  }
}

TEST(Power2Pipeline, ZipSourceThroughReduceMatchesTieSource) {
  const std::size_t n = 4096;
  auto zip_sum = power2_stream(n).reduce(
      0.0, [](double a, double b) { return a + b; });
  auto tie_sum = stream_support::from_spliterator<double>(
                     std::make_unique<TieSpliterator<double>>(shared_n(n)),
                     true)
                     .reduce(0.0, [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(zip_sum, tie_sum);
}

TEST(Power2Pipeline, SplitHalvesKeepPower2ThroughMap) {
  auto mapped = stream_support::from_spliterator<double>(
                    std::make_unique<ZipSpliterator<double>>(shared_n(16)),
                    true)
                    .map(std::function<double(const double&)>(
                        [](const double& d) { return d; }))
                    .into_spliterator();
  auto prefix = mapped->try_split();
  ASSERT_NE(prefix, nullptr);
  EXPECT_TRUE(prefix->has(kPower2));
  EXPECT_TRUE(mapped->has(kPower2));
}

}  // namespace
