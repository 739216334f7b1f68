// Differential suite for the multiway collect on the streams split-tree
// walk: every arity 2..8, every size 2^a * 3^b up to 2^12, pools of 1..4
// workers and a DeterministicPool seed sweep, on the supplier/combiner
// and the destination-passing paths. Each parallel run must be
// bit-identical to the sequential run and to the plain vector.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "forkjoin/pool.hpp"
#include "plist/multiway_spliterator.hpp"
#include "proptest/deterministic_pool.hpp"
#include "streams/collector.hpp"
#include "streams/sized_sink.hpp"
#include "support/bits.hpp"
#include "support/rng.hpp"

namespace {

using pls::forkjoin::ForkJoinPool;
using pls::plist::evaluate_collect_multiway;
using pls::plist::NTieSpliterator;
using pls::plist::NZipSpliterator;
using pls::streams::ExecutionConfig;

using Data = std::shared_ptr<const std::vector<std::int64_t>>;
using SpInt = std::unique_ptr<pls::streams::Spliterator<std::int64_t>>;

std::vector<std::size_t> sizes_2a3b(std::size_t limit) {
  std::vector<std::size_t> out;
  for (std::size_t p3 = 1; p3 <= limit; p3 *= 3) {
    for (std::size_t n = p3; n <= limit; n *= 2) out.push_back(n);
  }
  return out;
}

Data values(std::size_t n) {
  pls::SplitMix64 rng(n);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.next());
  return std::make_shared<const std::vector<std::int64_t>>(std::move(v));
}

template <typename Source, typename C>
auto collect(const Data& data, const C& c, std::size_t arity, bool parallel,
             const ExecutionConfig& cfg) {
  SpInt sp = std::make_unique<Source>(data);
  return evaluate_collect_multiway(sp, c, arity, parallel, cfg);
}

/// Wrapping integer sum: order-insensitive and exact, so an interleaved
/// (zip) source can run the supplier/combiner path too.
const auto kSum = pls::streams::make_collector<std::int64_t>(
    [] { return std::uint64_t{0}; },
    [](std::uint64_t& acc, const std::int64_t& v) {
      acc += static_cast<std::uint64_t>(v);
    },
    [](std::uint64_t& l, std::uint64_t& r) { l += r; });

std::uint64_t plain_sum(const std::vector<std::int64_t>& v) {
  std::uint64_t s = 0;
  for (const std::int64_t x : v) s += static_cast<std::uint64_t>(x);
  return s;
}

/// One (data, arity, pool) cell: NTie on both collect paths, NZip through
/// the sized sink (admitted at every size, the source being interleaved)
/// and through the exact sum.
void check_cell(const Data& data, std::size_t arity, ForkJoinPool& pool) {
  const pls::streams::VectorCollector<std::int64_t> to_vector;
  ExecutionConfig cfg;
  cfg.pool = &pool;
  cfg.min_chunk = 8;
  for (const bool sized_sink : {false, true}) {
    cfg.sized_sink = sized_sink;
    const auto seq =
        collect<NTieSpliterator<std::int64_t>>(data, to_vector, arity, false,
                                               cfg);
    const auto par =
        collect<NTieSpliterator<std::int64_t>>(data, to_vector, arity, true,
                                               cfg);
    ASSERT_EQ(seq, *data) << "tie sized_sink=" << sized_sink;
    ASSERT_EQ(par, seq) << "tie sized_sink=" << sized_sink;
  }
  cfg.sized_sink = true;
  const auto zip_par =
      collect<NZipSpliterator<std::int64_t>>(data, to_vector, arity, true,
                                             cfg);
  ASSERT_TRUE(pls::streams::last_plan().dps);
  ASSERT_EQ(zip_par, *data) << "zip through the sized sink";
  cfg.sized_sink = false;
  const std::uint64_t seq =
      collect<NZipSpliterator<std::int64_t>>(data, kSum, arity, false, cfg);
  const std::uint64_t par =
      collect<NZipSpliterator<std::int64_t>>(data, kSum, arity, true, cfg);
  ASSERT_EQ(seq, plain_sum(*data));
  ASSERT_EQ(par, seq);
}

TEST(MultiwayDifferential, EveryAritySizeAndPool) {
  std::vector<std::unique_ptr<ForkJoinPool>> pools;
  for (unsigned p = 1; p <= 4; ++p) {
    pools.push_back(std::make_unique<ForkJoinPool>(p));
  }
  for (const std::size_t n : sizes_2a3b(std::size_t{1} << 12)) {
    const Data data = values(n);
    for (std::size_t arity = 2; arity <= 8; ++arity) {
      for (auto& pool : pools) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " arity=" << arity
                     << " P=" << pool->parallelism());
        check_cell(data, arity, *pool);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(MultiwayDifferential, DeterministicScheduleSweep) {
  const std::vector<std::size_t> sizes = {1024, 972, 1728};
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    pls::proptest::DeterministicPool det(seed);
    for (const std::size_t n : sizes) {
      const Data data = values(n);
      for (std::size_t arity = 2; arity <= 8; ++arity) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed << " n=" << n
                                          << " arity=" << arity);
        check_cell(data, arity, det.pool());
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
