// Unit tests for the typed static-pipeline API (streams/static_fusion.hpp):
// pipe()/over(), Stream::stages(), execution-config round-tripping, every
// terminal, the dynamic fallback when the source refuses fusion, and
// admission observability.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "forkjoin/pool.hpp"
#include "observe/counters.hpp"
#include "pls.hpp"

namespace {

namespace streams = pls::streams;
using pls::stages::filter;
using pls::stages::map;
using pls::stages::peek;
using streams::Stream;

std::vector<std::int64_t> iota(std::int64_t n) {
  std::vector<std::int64_t> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), std::int64_t{0});
  return v;
}

TEST(StaticPipeline, PipeOverVectorToVector) {
  auto out = pls::pipe(map([](std::int64_t v) { return v * 2; }),
                       filter([](std::int64_t v) { return v % 3 == 0; }))
                 .over(iota(100))
                 .to_vector();
  std::vector<std::int64_t> expected;
  for (std::int64_t v = 0; v < 100; ++v) {
    if ((v * 2) % 3 == 0) expected.push_back(v * 2);
  }
  EXPECT_EQ(out, expected);
}

TEST(StaticPipeline, TypeChangingChain) {
  auto out = pls::pipe(map([](std::int64_t v) { return v + 1; }),
                       map([](std::int64_t v) {
                         return static_cast<double>(v) * 0.5;
                       }))
                 .over(iota(8))
                 .to_vector();
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], (static_cast<double>(i) + 1.0) * 0.5);
  }
  static_assert(
      std::is_same_v<decltype(out), std::vector<double>>,
      "chain output type is computed at compile time");
}

TEST(StaticPipeline, StreamStagesAdoptsSourceAndSettings) {
  pls::forkjoin::ForkJoinPool pool(2);
  auto out = Stream<std::int64_t>::of(iota(64))
                 .parallel()
                 .via(pool)
                 .with_min_chunk(8)
                 .stages(map([](std::int64_t v) { return v * v; }))
                 .to_vector();
  ASSERT_EQ(out.size(), 64u);
  for (std::int64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(out[static_cast<std::size_t>(v)], v * v);
  }
}

TEST(StaticPipeline, DynamicOpsUpstreamOfStaticStack) {
  // Ops applied to the Stream before stages() run as dynamic wrapper
  // stages below the static stack; results compose.
  auto out = Stream<std::int64_t>::of(iota(20))
                 .map([](std::int64_t v) { return v + 100; })
                 .stages(filter([](std::int64_t v) { return v % 2 == 0; }))
                 .to_vector();
  std::vector<std::int64_t> expected;
  for (std::int64_t v = 0; v < 20; ++v) {
    if ((v + 100) % 2 == 0) expected.push_back(v + 100);
  }
  EXPECT_EQ(out, expected);
}

TEST(StaticPipeline, StagesExtension) {
  auto out = pls::pipe(map([](std::int64_t v) { return v + 1; }))
                 .over(iota(10))
                 .stages(map([](std::int64_t v) { return v * 3; }))
                 .to_vector();
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], (static_cast<std::int64_t>(i) + 1) * 3);
  }
}

TEST(StaticPipeline, Terminals) {
  const auto make = [] {
    return pls::pipe(map([](std::int64_t v) { return v * 2; }))
        .over(iota(10));
  };

  EXPECT_EQ(make().count(), 10u);

  auto sum = make().reduce(std::int64_t{0},
                           [](std::int64_t a, std::int64_t b) { return a + b; });
  EXPECT_EQ(sum, 90);

  auto opt = make().reduce(
      [](std::int64_t a, std::int64_t b) { return a < b ? b : a; });
  ASSERT_TRUE(opt.has_value());
  EXPECT_EQ(*opt, 18);

  std::int64_t seen = 0;
  make().for_each([&](const std::int64_t& v) { seen += v; });
  EXPECT_EQ(seen, 90);

  auto collected = make().collect(streams::collectors::summing<std::int64_t>());
  EXPECT_EQ(collected, 90);
}

TEST(StaticPipeline, EmptySource) {
  auto p = pls::pipe(map([](std::int64_t v) { return v * 2; }),
                     filter([](std::int64_t v) { return v > 0; }));
  EXPECT_TRUE(p.over(std::vector<std::int64_t>{}).to_vector().empty());
  EXPECT_EQ(p.over(std::vector<std::int64_t>{}).count(), 0u);
  EXPECT_FALSE(p.over(std::vector<std::int64_t>{})
                   .reduce([](std::int64_t a, std::int64_t b) { return a + b; })
                   .has_value());
}

TEST(StaticPipeline, PeekObservesEveryElement) {
  std::int64_t observed = 0;
  auto out = pls::pipe(peek([&](const std::int64_t&) { ++observed; }),
                       map([](std::int64_t v) { return v - 1; }))
                 .over(iota(33))
                 .to_vector();
  EXPECT_EQ(observed, 33);
  EXPECT_EQ(out.size(), 33u);
  EXPECT_EQ(out.front(), -1);
}

TEST(StaticPipeline, UnsizedSourceRunsFused) {
  // iterate() is unsized: the fuse step adopts it as the source under
  // the limit stage, and the static stack runs on top of that.
  const auto before = pls::observe::aggregate_counters();
  auto out = Stream<std::int64_t>::iterate(
                 1, [](std::int64_t v) { return v * 2; })
                 .limit(10)
                 .stages(map([](std::int64_t v) { return v + 1; }))
                 .to_vector();
  const auto delta = pls::observe::aggregate_counters() - before;
  std::vector<std::int64_t> expected;
  std::int64_t v = 1;
  for (int i = 0; i < 10; ++i, v *= 2) expected.push_back(v + 1);
  EXPECT_EQ(out, expected);
  EXPECT_EQ(streams::last_plan().origin, streams::PlanOrigin::kStatic);
  EXPECT_EQ(streams::last_plan().stages, 2u);  // limit + the static stack
  if (pls::observe::kEnabled) {
    EXPECT_EQ(delta.fused_leaves, 1u);
  }
}

TEST(StaticPipeline, StaticChainRunsFusedOnAdmissibleSource) {
  if (!pls::observe::kEnabled) {
    GTEST_SKIP() << "observability compiled out";
  }
  const auto before = pls::observe::aggregate_counters();
  (void)pls::pipe(map([](std::int64_t v) { return v * 2; }))
      .over(iota(128))
      .to_vector();
  const auto delta = pls::observe::aggregate_counters() - before;
  EXPECT_GT(delta.fused_leaves, 0u) << "static chain fell back to wrappers";
}

TEST(StaticPipeline, SessionConfigRoundTrip) {
  pls::session s(pls::config{.parallelism = 2, .grain = 16});
  auto cfg = s.stream_config();
  auto pipeline = pls::pipe(map([](std::int64_t v) { return v + 3; }))
                      .over(iota(50))
                      .parallel(cfg);
  EXPECT_TRUE(pipeline.is_parallel());
  EXPECT_EQ(pipeline.config().min_chunk, 16u);
  EXPECT_EQ(pipeline.config().pool, &s.pool());
  auto out = std::move(pipeline).to_vector();
  ASSERT_EQ(out.size(), 50u);
  for (std::int64_t v = 0; v < 50; ++v) {
    EXPECT_EQ(out[static_cast<std::size_t>(v)], v + 3);
  }
}

TEST(StaticPipeline, ToStreamDissolvesExplicitly) {
  auto out = pls::pipe(map([](std::int64_t v) { return v * 2; }),
                       filter([](std::int64_t v) { return v > 10; }))
                 .over(iota(10))
                 .to_stream()
                 .to_vector();
  EXPECT_EQ(out, (std::vector<std::int64_t>{12, 14, 16, 18}));
}

TEST(StaticPipeline, OverRangeAndShared) {
  auto shared = std::make_shared<const std::vector<std::int64_t>>(iota(16));
  auto a = pls::pipe(map([](std::int64_t v) { return v + 1; }))
               .over_shared(shared)
               .to_vector();
  auto b = pls::pipe(map([](std::int64_t v) { return v + 1; }))
               .over_range<std::int64_t>(0, 16)
               .to_vector();
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 16u);
  EXPECT_EQ(a.front(), 1);
  EXPECT_EQ(a.back(), 16);
}

/// Logs the length of every chunk its terminal sink receives (0 for a
/// single-element accept).
struct ChunkSizes final
    : streams::Collector<std::int64_t, std::vector<std::size_t>> {
  std::vector<std::size_t> supply() const override { return {}; }
  void accumulate(std::vector<std::size_t>& log,
                  const std::int64_t&) const override {
    log.push_back(0);
  }
  void accumulate_chunk(std::vector<std::size_t>& log, const std::int64_t*,
                        std::size_t n) const {
    log.push_back(n);
  }
  void combine(std::vector<std::size_t>& left,
               std::vector<std::size_t>& right) const override {
    left.insert(left.end(), right.begin(), right.end());
  }
};

TEST(StaticPipeline, FlatMapBatchesAreBounded) {
  // A fan-out-64 expansion flushes once the buffer reaches kFusionChunk,
  // and one expansion is never split, so no batch exceeds
  // kFusionChunk + 63 — in a multi-op stack as in a one-op stage.
  const auto fan_out = [](const std::int64_t& v) {
    return std::vector<std::int64_t>(64, v);
  };
  const auto sizes =
      pls::pipe(pls::stages::flat_map(fan_out),
                map([](std::int64_t v) { return v + 1; }))
          .over(iota(4096))
          .collect(ChunkSizes{});
  std::size_t total = 0;
  for (const std::size_t n : sizes) {
    EXPECT_LE(n, streams::kFusionChunk + 63);
    total += n;
  }
  EXPECT_EQ(total, 4096u * 64u);
  const auto one_op = Stream<std::int64_t>::of(iota(4096))
                          .stages(pls::stages::flat_map(fan_out))
                          .collect(ChunkSizes{});
  EXPECT_EQ(one_op, sizes);
}

/// Neither movable nor copyable: a map may produce it, but it cannot sit
/// in a scratch buffer.
struct Pinned {
  explicit Pinned(std::int64_t v) : value(v) {}
  Pinned(Pinned&&) = delete;
  std::int64_t value;
};

/// Movable but not default-constructible.
struct NoDefault {
  explicit NoDefault(std::int64_t v) : value(v) {}
  std::int64_t value;
};

TEST(StaticPipeline, ElementTypesThatCannotBeBufferedRunElementWise) {
  std::int64_t pinned_sum = 0;
  Stream<std::int64_t>::of(iota(3000))
      .map([](const std::int64_t& v) { return Pinned(v); })
      .for_each([&](const Pinned& p) { pinned_sum += p.value; });
  EXPECT_EQ(pinned_sum, 2999 * 3000 / 2);

  using Owned = std::unique_ptr<std::int64_t>;
  std::int64_t owned_sum = 0;
  Stream<std::int64_t>::of(iota(3000))
      .map([](const std::int64_t& v) { return Owned(new std::int64_t(v)); })
      .filter([](const Owned& p) { return *p % 2 == 0; })
      .for_each([&](const Owned& p) { owned_sum += *p; });
  EXPECT_EQ(owned_sum, 1499 * 1500);

  const auto kept =
      Stream<std::int64_t>::of(iota(3000))
          .map([](const std::int64_t& v) { return NoDefault(v); })
          .count();
  EXPECT_EQ(kept, 3000u);
}

// ---- unified evaluate() dispatch (the deprecation satellite) ----------

TEST(UnifiedEvaluate, TerminalDescriptorsMatchStreamTerminals) {
  const auto data = iota(40);
  const auto pipeline = [&] {
    return streams::fuse_source<std::int64_t>(
        std::make_unique<streams::ArraySpliterator<std::int64_t>>(
            std::make_shared<const std::vector<std::int64_t>>(data)));
  };
  {
    auto op = [](std::int64_t a, std::int64_t b) { return a + b; };
    auto r = streams::evaluate<std::int64_t>(
        *pipeline(), streams::terminals::reduce(op), false);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, 780);
  }
  EXPECT_EQ(streams::evaluate<std::int64_t>(
                *pipeline(), streams::terminals::count(), false),
            40u);
  {
    std::int64_t sum = 0;
    streams::evaluate<std::int64_t>(
        *pipeline(),
        streams::terminals::for_each([&](const std::int64_t& v) { sum += v; }),
        false);
    EXPECT_EQ(sum, 780);
  }
}

TEST(UnifiedEvaluate, DeprecatedAliasesStillWork) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
  auto fp = streams::fuse_source<std::int64_t>(
      std::make_unique<streams::ArraySpliterator<std::int64_t>>(
          std::make_shared<const std::vector<std::int64_t>>(iota(10))));
  EXPECT_EQ(streams::evaluate<std::int64_t>(*fp, streams::terminals::count(),
                                            false),
            10u);
#pragma GCC diagnostic pop
}

}  // namespace
