// Destination-passing execution in the PowerList layer: the sized-sink
// PowerArray collectors, PowerArray::adopt, and the zip_all scratch reuse.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "observe/counters.hpp"
#include "powerlist/collector_functions.hpp"
#include "powerlist/power_array.hpp"
#include "powerlist/spliterators.hpp"
#include "streams/stream.hpp"

namespace {

using pls::observe::aggregate_counters;
using pls::observe::CounterTotals;
using pls::observe::kEnabled;
using pls::powerlist::DecompositionOp;
using pls::powerlist::PowerArray;
using pls::powerlist::TieSpliterator;
using pls::powerlist::ZipSpliterator;

std::vector<int> test_data(std::size_t n) {
  std::vector<int> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<int>((i * 2654435761u) % 1000);
  }
  return v;
}

// ---- sized-sink PowerArray collectors --------------------------------

TEST(PowerArrayDps, ZipIdentityReconstructsWithoutCombines) {
  auto data =
      std::make_shared<const std::vector<int>>(test_data(1 << 8));
  auto sp = std::make_unique<ZipSpliterator<int>>(data);
  auto stream = pls::streams::stream_support::from_spliterator<int>(
      std::move(sp), /*parallel=*/true);
  const CounterTotals before = aggregate_counters();
  auto pa = std::move(stream).with_min_chunk(16).collect(
      pls::powerlist::to_power_array_zip<int>());
  const CounterTotals delta = aggregate_counters() - before;
  ASSERT_EQ(pa.size(), data->size());
  for (std::size_t i = 0; i < data->size(); ++i) {
    EXPECT_EQ(pa[i], (*data)[i]);
  }
  if (kEnabled) {
    EXPECT_EQ(delta.combines, 0u);
    EXPECT_EQ(delta.bytes_moved, 0u);
    EXPECT_EQ(delta.allocations, 1u);
  }
}

TEST(PowerArrayDps, TieIdentityMatchesLegacyPath) {
  auto data =
      std::make_shared<const std::vector<int>>(test_data(1 << 8));
  auto collect_with = [&](bool sized_sink) {
    auto sp = std::make_unique<TieSpliterator<int>>(data);
    auto stream = pls::streams::stream_support::from_spliterator<int>(
        std::move(sp), /*parallel=*/true);
    return std::move(stream)
        .with_min_chunk(16)
        .with_sized_sink(sized_sink)
        .collect(pls::powerlist::to_power_array_tie<int>());
  };
  const auto dps = collect_with(true);
  const auto legacy = collect_with(false);
  EXPECT_EQ(dps, legacy);
  EXPECT_EQ(dps.values(), *data);
}

TEST(PowerArrayDps, MapCollectorAppliesFunctionInPlace) {
  auto data =
      std::make_shared<const std::vector<int>>(test_data(1 << 8));
  auto sp = std::make_unique<ZipSpliterator<int>>(data);
  auto stream = pls::streams::stream_support::from_spliterator<int>(
      std::move(sp), /*parallel=*/true);
  auto pa = std::move(stream).collect(
      pls::powerlist::power_map_collector<int>(
          [](int v) { return v * v; }, DecompositionOp::kZip));
  ASSERT_EQ(pa.size(), data->size());
  for (std::size_t i = 0; i < data->size(); ++i) {
    EXPECT_EQ(pa[i], (*data)[i] * (*data)[i]);
  }
}

// ---- PowerArray mechanics --------------------------------------------

TEST(PowerArrayDps, AdoptTakesBufferVerbatim) {
  auto pa = PowerArray<int>::adopt({1, 2, 3, 4});
  EXPECT_EQ(pa.size(), 4u);
  EXPECT_TRUE(pa.is_power_list());
  EXPECT_EQ(pa.values(), (std::vector<int>{1, 2, 3, 4}));
}

TEST(PowerArrayDps, RepeatedZipAllStaysCorrectWithScratchReuse) {
  // Build 1..16 by three successive zips on the same accumulator, the
  // pattern a combine tree produces — exercises the recycled scratch.
  PowerArray<int> acc{1, 3};
  PowerArray<int> b{2, 4};
  acc.zip_all(b);
  EXPECT_EQ(acc.values(), (std::vector<int>{1, 2, 3, 4}));
  PowerArray<int> c{10, 20, 30, 40};
  acc.zip_all(c);
  EXPECT_EQ(acc.values(),
            (std::vector<int>{1, 10, 2, 20, 3, 30, 4, 40}));
  PowerArray<int> d{5, 6, 7, 8, 9, 11, 12, 13};
  acc.zip_all(d);
  ASSERT_EQ(acc.size(), 16u);
  EXPECT_EQ(acc[0], 1);
  EXPECT_EQ(acc[1], 5);
  EXPECT_EQ(acc[2], 10);
  EXPECT_EQ(acc[15], 13);
}

TEST(PowerArrayDps, WalshHadamardDpsMatchesLegacy) {
  std::vector<double> values{1, 2, 3, 4, 5, 6, 7, 8};
  const auto par =
      pls::powerlist::walsh_hadamard_stream<double>(values, true);
  const auto seq =
      pls::powerlist::walsh_hadamard_stream<double>(values, false);
  EXPECT_EQ(par, seq);
}

}  // namespace
