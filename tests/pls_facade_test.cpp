// The pls:: facade: config -> session -> pools/executors/observability,
// and pls::run as the single entry point.
#include "pls.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
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
  // A session run's counter delta is its RunRecord's; its shape is the
  // closed-form decomposition_shape.
  auto data = iota(1 << 10);
  pls::powerlist::ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  pls::config cfg;
  cfg.parallelism = 2;
  cfg.grain = 64;
  pls::run(cfg, [&](pls::session& s) {
    EXPECT_EQ(s.execute(sum, view), (1L << 10) * ((1L << 10) + 1) / 2);
    const auto shape =
        pls::powerlist::decomposition_shape(view.length(), s.grain_or(1));
    EXPECT_EQ(shape.basic_cases, 16u);  // 1024/64
    EXPECT_EQ(shape.max_depth, 4u);
    if (pls::observe::kEnabled) {
      const auto runs = s.runs();
      EXPECT_EQ(runs.size(), 1u);
      if (runs.empty()) return 0;
      const auto& counters = runs.back().counters;
      EXPECT_EQ(counters.splits, 15u);
      EXPECT_EQ(counters.combines, 15u);
      EXPECT_EQ(counters.leaf_chunks, 16u);
      EXPECT_EQ(counters.elements_accumulated, 1u << 10);
    }
    return 0;
  });
}

TEST(Facade, SessionExecuteIsOneRecordedRun) {
  // A PowerList run replaces the stream terminal's plan as the session's
  // last plan and appends exactly one record.
  auto data = iota(1 << 10);
  pls::powerlist::ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  pls::config cfg;
  cfg.parallelism = 2;
  cfg.grain = 16;
  pls::run(cfg, [&](pls::session& s) {
    (void)pls::streams::Stream<long>::of(data).parallel(s.stream_config())
        .reduce(0L, std::plus<long>{});
    EXPECT_NE(s.plan().terminal, pls::streams::TerminalKind::kPowerFunction);
    const auto runs_before = s.runs().size();
    (void)s.execute(sum, view);
    EXPECT_EQ(s.plan().terminal, pls::streams::TerminalKind::kPowerFunction);
    EXPECT_EQ(s.plan().grain, 16u);
    EXPECT_NE(s.explain().find("power_function"), std::string::npos)
        << s.explain();
    if (pls::observe::kEnabled) {
      const auto runs = s.runs();
      EXPECT_EQ(runs_before, 1u);
      EXPECT_EQ(runs.size(), 2u);
      if (runs.size() != 2u) return 0;
      EXPECT_STREQ(runs[1].terminal, "power_function");
      EXPECT_EQ(runs[1].cache_key, s.plan().cache_key);
    }
    return 0;
  });
}

TEST(Facade, PListForkJoinIsOneRecordedRun) {
  const std::vector<int> data = [] {
    std::vector<int> v(243);
    std::iota(v.begin(), v.end(), 1);
    return v;
  }();
  const auto view = pls::plist::PListView<const int>::over(data);
  pls::plist::NWayReduce<int, std::plus<int>> sum{std::plus<int>{}, 3};
  pls::config cfg;
  cfg.parallelism = 2;
  // max_split_depth is a process-wide high-water mark: start from zero so
  // the record shows this run's depth.
  pls::observe::SlotRegistry::global().reset();
  pls::run(cfg, [&](pls::session& s) {
    EXPECT_EQ(pls::plist::execute_forkjoin(s.pool(), sum, view, {}, 9),
              243 * 244 / 2);
    EXPECT_EQ(s.plan().terminal, pls::streams::TerminalKind::kPowerFunction);
    EXPECT_EQ(s.plan().arity, 3u);
    EXPECT_NE(s.explain().find("arity 3"), std::string::npos) << s.explain();
    if (pls::observe::kEnabled) {
      const auto runs = s.runs();
      EXPECT_EQ(runs.size(), 1u);
      if (runs.empty()) return 0;
      EXPECT_EQ(runs[0].cache_key, s.plan().cache_key);
      EXPECT_EQ(runs[0].source_size, 243u);
      EXPECT_EQ(runs[0].grain, 9u);
      // 243 = 3^5 split three ways down to leaves of 9: 27 leaves under
      // 1 + 3 + 9 splits, each combined once, at depths 0..2.
      const auto& c = runs[0].counters;
      EXPECT_EQ(c.leaf_chunks, 27u);
      EXPECT_EQ(c.splits, 13u);
      EXPECT_EQ(c.combines, 13u);
      EXPECT_EQ(c.elements_accumulated, 243u);
      EXPECT_EQ(c.max_split_depth, 2u);
    }
    return 0;
  });
}

TEST(Facade, ThrowingRunStillLeavesOneRecord) {
  // The run's RunScope closes on unwind, so a PowerFunction whose leaf
  // throws still appends exactly one record.
  struct LeafThrows final : pls::powerlist::PowerFunction<long, long> {
    long basic_case(pls::powerlist::PowerListView<const long> leaf,
                    const pls::powerlist::NoContext&) const override {
      if (leaf[0] == 129) throw std::runtime_error("leaf");
      return leaf[0];
    }
    long combine(long&& l, long&& r, const pls::powerlist::NoContext&,
                 std::size_t) const override {
      return l + r;
    }
  } f;
  auto data = iota(256);
  const auto view = pls::powerlist::view_of(std::as_const(data));
  pls::config cfg;
  cfg.parallelism = 2;
  cfg.grain = 16;
  pls::run(cfg, [&](pls::session& s) {
    EXPECT_THROW((void)s.execute(f, view), std::runtime_error);
    EXPECT_EQ(s.plan().terminal, pls::streams::TerminalKind::kPowerFunction);
    if (pls::observe::kEnabled) {
      const auto runs = s.runs();
      EXPECT_EQ(runs.size(), 1u);
      if (!runs.empty()) {
        EXPECT_STREQ(runs[0].terminal, "power_function");
      }
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

TEST(Facade, ProfiledExecutionKeepsTheSessionProfile) {
  // Inside a profiling session, an inner ProfileSession adds its tree to
  // the session's recorder: it neither drops the earlier trees nor turns
  // profiling off for the runs after it, and reports only its own run.
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  auto& recorder = pls::observe::CriticalPathRecorder::global();
  ASSERT_FALSE(recorder.enabled());
  auto data = iota(1 << 10);
  pls::powerlist::ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  pls::config cfg;
  cfg.parallelism = 2;
  cfg.grain = 64;
  cfg.profile = true;
  pls::run(cfg, [&](pls::session& s) {
    (void)s.execute(sum, view);
    pls::observe::CriticalPathStats inner;
    {
      pls::observe::ProfileSession profile;
      (void)s.execute(sum, view);
      inner = profile.stats();
    }
    (void)s.execute(sum, view);
    EXPECT_TRUE(recorder.enabled());
    EXPECT_EQ(recorder.roots().size(), 3u);
    // The inner scope covers its own run (16 leaves of 64); the session's
    // profile covers all three.
    EXPECT_EQ(inner.leaves, 16u);
    EXPECT_EQ(inner.elements, 1u << 10);
    const auto all = s.profile();
    EXPECT_EQ(all.leaves, 3u * 16u);
    EXPECT_EQ(all.elements, 3u << 10);
    return 0;
  });
  EXPECT_FALSE(recorder.enabled());
  recorder.clear();
}

TEST(Facade, NestedTraceSessionKeepsTheOuterTrace) {
  // An inner TraceSession inside an observing session neither clears the
  // outer's events nor turns tracing off when it closes.
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  auto& recorder = pls::observe::TraceRecorder::global();
  ASSERT_FALSE(recorder.enabled());
  recorder.set_output_path("");
  auto data = iota(1 << 8);
  pls::powerlist::ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  pls::config cfg;
  cfg.parallelism = 2;
  cfg.grain = 16;
  cfg.observe = true;
  pls::run(cfg, [&](pls::session& s) {
    (void)s.execute(sum, view);
    const std::size_t outer = recorder.events().size();
    EXPECT_GT(outer, 0u);
    {
      pls::observe::TraceSession inner;
      EXPECT_TRUE(recorder.enabled());
      EXPECT_GE(recorder.events().size(), outer);
      (void)s.execute(sum, view);
    }
    EXPECT_TRUE(recorder.enabled());
    EXPECT_GT(recorder.events().size(), outer);
    return 0;
  });
  EXPECT_FALSE(recorder.enabled());
  recorder.clear();
}

TEST(Facade, MultiwayCollectIsOneRecordedRun) {
  // The multiway collect is an ordinary planned terminal: one plan that
  // names its arity, and exactly one RunRecord.
  auto data = std::make_shared<const std::vector<long>>(iota(729));  // 3^6
  pls::config cfg;
  cfg.parallelism = 2;
  cfg.grain = 27;
  pls::run(cfg, [&](pls::session& s) {
    std::unique_ptr<pls::streams::Spliterator<long>> sp =
        std::make_unique<pls::plist::NTieSpliterator<long>>(data);
    const auto out = pls::plist::evaluate_collect_multiway(
        sp, pls::streams::VectorCollector<long>{}, 3, true,
        s.stream_config());
    EXPECT_EQ(out, *data);
    EXPECT_EQ(s.plan().arity, 3u);
    EXPECT_NE(s.explain().find("arity 3"), std::string::npos) << s.explain();
    if (pls::observe::kEnabled) {
      const auto runs = s.runs();
      EXPECT_EQ(runs.size(), 1u);
      if (runs.empty()) return 0;
      EXPECT_EQ(runs[0].cache_key, s.plan().cache_key);
      // 3^6 elements split three ways down to 27: 27 leaves, 13 splits.
      EXPECT_EQ(runs[0].counters.leaf_chunks, 27u);
      EXPECT_EQ(runs[0].counters.splits, 13u);
      EXPECT_EQ(runs[0].counters.combines, 26u);
    }
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
