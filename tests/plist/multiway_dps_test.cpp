// Destination-passing multiway collect: n-way windows make n-way zip
// reconstruction expressible (the supplier/combiner path cannot express
// it with any pairwise combiner — zip_join(a,b,c) != zip(zip(a,b),c)).
#include "plist/multiway_spliterator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "forkjoin/pool.hpp"
#include "observe/counters.hpp"
#include "streams/sized_sink.hpp"

namespace {

using pls::forkjoin::ForkJoinPool;
using pls::observe::aggregate_counters;
using pls::observe::CounterTotals;
using pls::observe::kEnabled;
using pls::plist::evaluate_collect_multiway;
using pls::plist::NTieSpliterator;
using pls::plist::NZipSpliterator;
using pls::streams::VectorCollector;

using SpInt = std::unique_ptr<pls::streams::Spliterator<int>>;

std::shared_ptr<const std::vector<int>> iota_shared(std::size_t n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return std::make_shared<const std::vector<int>>(std::move(v));
}

class MultiwayDps : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MultiwayDps, NZipReconstructsIdentityAtArity) {
  const std::size_t arity = GetParam();
  auto data = iota_shared(1 << 10);
  SpInt sp = std::make_unique<NZipSpliterator<int>>(data);
  pls::streams::ExecutionConfig cfg;
  ForkJoinPool pool(2);
  cfg.pool = &pool;
  cfg.min_chunk = 16;
  const CounterTotals before = aggregate_counters();
  const auto out = evaluate_collect_multiway(sp, VectorCollector<int>{},
                                             arity, /*parallel=*/true, cfg);
  const CounterTotals delta = aggregate_counters() - before;
  EXPECT_EQ(out, *data)
      << "windows encode the interleaving, so zip order survives any arity";
  if (kEnabled) {
    EXPECT_EQ(delta.combines, 0u);
    EXPECT_EQ(delta.bytes_moved, 0u);
    EXPECT_EQ(delta.allocations, 1u);
    EXPECT_GT(delta.splits, 0u);
  }
}

TEST_P(MultiwayDps, NTieReconstructsIdentityAtArity) {
  const std::size_t arity = GetParam();
  auto data = iota_shared(1 << 10);
  SpInt sp = std::make_unique<NTieSpliterator<int>>(data);
  pls::streams::ExecutionConfig cfg;
  ForkJoinPool pool(2);
  cfg.pool = &pool;
  cfg.min_chunk = 16;
  const auto out = evaluate_collect_multiway(sp, VectorCollector<int>{},
                                             arity, /*parallel=*/true, cfg);
  EXPECT_EQ(out, *data);
}

INSTANTIATE_TEST_SUITE_P(Arities, MultiwayDps,
                         ::testing::Values(2u, 3u, 4u, 8u));

TEST(MultiwayDps, SequentialPathAlsoUsesSink) {
  auto data = iota_shared(1 << 8);
  SpInt sp = std::make_unique<NZipSpliterator<int>>(data);
  const CounterTotals before = aggregate_counters();
  const auto out = evaluate_collect_multiway(sp, VectorCollector<int>{}, 4,
                                             /*parallel=*/false);
  const CounterTotals delta = aggregate_counters() - before;
  EXPECT_EQ(out, *data);
  if (kEnabled) {
    EXPECT_EQ(delta.allocations, 1u);
    EXPECT_EQ(delta.bytes_moved, 0u);
  }
}

TEST(MultiwayDps, LegacyPathStillFoldsForTieSources) {
  // With the sized sink disabled, NTie still reconstructs (pairwise
  // concat folds are fine for tie) — the guardrail that the old path
  // keeps working.
  auto data = iota_shared(1 << 8);
  SpInt sp = std::make_unique<NTieSpliterator<int>>(data);
  pls::streams::ExecutionConfig cfg;
  ForkJoinPool pool(2);
  cfg.pool = &pool;
  cfg.min_chunk = 16;
  cfg.sized_sink = false;
  const CounterTotals before = aggregate_counters();
  const auto out = evaluate_collect_multiway(sp, VectorCollector<int>{}, 4,
                                             /*parallel=*/true, cfg);
  const CounterTotals delta = aggregate_counters() - before;
  EXPECT_EQ(out, *data);
  if (kEnabled) {
    EXPECT_GT(delta.combines, 0u);
    EXPECT_GT(delta.bytes_moved, 0u);
  }
}

TEST(MultiwayDps, NonPowerOfTwoFallsBackToFold) {
  // 3 * 2^6 elements: windowed but not a power of two, so the sized-sink
  // admission rejects it and the fold path runs. Tie is fold-safe.
  auto data = iota_shared(192);
  SpInt sp = std::make_unique<NTieSpliterator<int>>(data);
  pls::streams::ExecutionConfig cfg;
  ForkJoinPool pool(2);
  cfg.pool = &pool;
  cfg.min_chunk = 16;
  const CounterTotals before = aggregate_counters();
  const auto out = evaluate_collect_multiway(sp, VectorCollector<int>{}, 3,
                                             /*parallel=*/true, cfg);
  const CounterTotals delta = aggregate_counters() - before;
  EXPECT_EQ(out, *data);
  if (kEnabled) {
    EXPECT_GT(delta.combines, 0u) << "non-POWER2 source must take the fold";
  }
}

TEST(MultiwayDps, NZipKeepsSourceOrderAtNonPowerOfTwoSizes) {
  // An interleaved source is admitted to the sized sink at any size: the
  // pairwise fold would concatenate its residue classes (0 9 18 3 12 ...
  // for 27 elements at arity 3) instead of keeping source order.
  ForkJoinPool pool(2);
  std::vector<std::size_t> sizes{27};
  for (std::size_t n = 3; n <= 3 * (std::size_t{1} << 8); n *= 2) {
    sizes.push_back(n);
  }
  for (const std::size_t n : sizes) {
    for (std::size_t arity = 3; arity <= 8; ++arity) {
      auto data = iota_shared(n);
      SpInt sp = std::make_unique<NZipSpliterator<int>>(data);
      pls::streams::ExecutionConfig cfg;
      cfg.pool = &pool;
      cfg.min_chunk = 3;
      const auto out = evaluate_collect_multiway(
          sp, VectorCollector<int>{}, arity, /*parallel=*/true, cfg);
      EXPECT_EQ(out, *data) << "n=" << n << " arity=" << arity;
      EXPECT_TRUE(pls::streams::last_plan().dps)
          << "n=" << n << " arity=" << arity;
    }
  }
}

}  // namespace
