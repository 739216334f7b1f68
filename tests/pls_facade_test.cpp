// The pls:: facade: config -> session -> pools/executors/observability,
// and pls::run as the single entry point.
#include "pls.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

namespace {

std::vector<long> iota(std::size_t n) {
  std::vector<long> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

TEST(Facade, RunWithoutSessionExecutesOnPool) {
  const long v = pls::run({}, [] { return 41L + 1L; });
  EXPECT_EQ(v, 42L);
}

TEST(Facade, SessionPoolHonoursParallelism) {
  pls::config cfg;
  cfg.parallelism = 3;
  pls::run(cfg, [&](pls::session& s) {
    EXPECT_EQ(s.pool().parallelism(), 3u);
    return 0;
  });
}

TEST(Facade, DefaultConfigBorrowsCommonPool) {
  pls::run({}, [](pls::session& s) {
    EXPECT_EQ(&s.pool(), &pls::forkjoin::ForkJoinPool::common());
    return 0;
  });
}

TEST(Facade, StreamConfigCarriesPoolAndGrain) {
  pls::config cfg;
  cfg.parallelism = 2;
  cfg.grain = 64;
  pls::run(cfg, [&](pls::session& s) {
    const auto ec = s.stream_config();
    EXPECT_EQ(ec.pool, &s.pool());
    EXPECT_EQ(ec.min_chunk, 64u);
    return 0;
  });
}

TEST(Facade, StreamConfigRoundTripsAllStreamOptionsLosslessly) {
  // Every stream-relevant session option must survive into the
  // ExecutionConfig — a config knob that silently drops out here is a
  // routing bug (the DPS toggle would be ignored).
  for (const bool sized_sink : {false, true}) {
    for (const bool auto_grain : {false, true}) {
      pls::config cfg;
      cfg.parallelism = 2;
      cfg.grain = 32;
      cfg.sized_sink = sized_sink;
      cfg.auto_grain = auto_grain;
      pls::run(cfg, [&](pls::session& s) {
        const auto ec = s.stream_config();
        EXPECT_EQ(ec.pool, &s.pool());
        EXPECT_EQ(ec.min_chunk, 32u);
        EXPECT_EQ(ec.sized_sink, sized_sink);
        EXPECT_EQ(ec.auto_grain, auto_grain);
        return 0;
      });
    }
  }
}

TEST(Facade, SharedBuilderChainsOnExecutionConfig) {
  pls::forkjoin::ForkJoinPool pool(2);
  const auto ec = pls::streams::ExecutionConfig{}
                      .with_pool(pool)
                      .with_min_chunk(7)
                      .with_sized_sink(false)
                      .with_auto_grain(true);
  EXPECT_EQ(ec.pool, &pool);
  EXPECT_EQ(ec.min_chunk, 7u);
  EXPECT_FALSE(ec.sized_sink);
  EXPECT_TRUE(ec.auto_grain);
}

TEST(Facade, StreamPipelineThroughSession) {
  pls::config cfg;
  cfg.parallelism = 4;
  cfg.grain = 128;
  const long total = pls::run(cfg, [&](pls::session& s) {
    auto data = std::make_shared<const std::vector<long>>(iota(1 << 12));
    return pls::streams::Stream<long>::of_shared(data)
        .parallel(s.stream_config())
        .map([](long v) { return v * 2; })
        .reduce(0L, [](long a, long b) { return a + b; });
  });
  const long n = 1 << 12;
  EXPECT_EQ(total, n * (n + 1));
}

TEST(Facade, SkeletonExecutionThroughSession) {
  auto data = iota(1 << 10);
  pls::powerlist::ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  pls::config cfg;
  cfg.parallelism = 4;
  cfg.grain = 16;
  const long expected = (1L << 10) * ((1L << 10) + 1) / 2;
  const long got = pls::run(
      cfg, [&](pls::session& s) { return s.execute(sum, view); });
  EXPECT_EQ(got, expected);
}

TEST(Facade, ReportedExecutionFillsShapeAndCounters) {
  auto data = iota(1 << 10);
  pls::powerlist::ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  pls::config cfg;
  cfg.parallelism = 2;
  cfg.grain = 64;
  pls::run(cfg, [&](pls::session& s) {
    const auto report = s.execute_reported(sum, view);
    EXPECT_EQ(report.result, (1L << 10) * ((1L << 10) + 1) / 2);
    EXPECT_EQ(report.stats.basic_cases, 16u);  // 1024/64
    EXPECT_EQ(report.stats.max_depth, 4u);
    EXPECT_FALSE(report.simulated);
    if (pls::observe::kEnabled) {
      EXPECT_EQ(report.counters.splits, 15u);
      EXPECT_EQ(report.counters.combines, 15u);
      EXPECT_EQ(report.counters.leaf_chunks, 16u);
      EXPECT_EQ(report.counters.elements_accumulated, 1u << 10);
    }
    return 0;
  });
}

TEST(Facade, SessionCountersDeltaAfterWork) {
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  auto data = iota(1 << 10);
  pls::powerlist::ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  pls::config cfg;
  cfg.parallelism = 2;
  cfg.grain = 32;
  pls::run(cfg, [&](pls::session& s) {
    (void)s.execute(sum, view);
    const auto delta = s.counters();
    EXPECT_GT(delta.tasks_executed, 0u);
    EXPECT_EQ(delta.leaf_chunks, 32u);
    return 0;
  });
}

TEST(Facade, ObserveSessionProducesTrace) {
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  pls::observe::TraceRecorder::global().clear();
  auto data = iota(1 << 8);
  pls::powerlist::ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  pls::config cfg;
  cfg.parallelism = 2;
  cfg.grain = 16;
  cfg.observe = true;
  const std::string json = pls::run(cfg, [&](pls::session& s) {
    (void)s.execute(sum, view);
    return s.trace_json();
  });
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"combine\""), std::string::npos);
  // The session turned tracing on for its scope only.
  EXPECT_FALSE(pls::observe::TraceRecorder::global().enabled());
  pls::observe::TraceRecorder::global().clear();
}

}  // namespace
