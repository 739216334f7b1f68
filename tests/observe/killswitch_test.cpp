// PLS_OBSERVE=0 contract: this TU pins the kill switch off regardless of
// how the rest of the build was configured (the observe headers are
// self-contained, so a per-TU setting is safe) and asserts that the whole
// layer compiles down to no-ops — empty spans, stateless counters, an
// exporter that produces an empty-but-valid trace. Together with the
// `observe-off` CMake preset (which builds *everything* with the switch
// off) this keeps both sides of the #if compiling in every build.
#undef PLS_OBSERVE
#define PLS_OBSERVE 0

#include "observe/counters.hpp"
#include "observe/critical_path.hpp"
#include "observe/export.hpp"
#include "observe/flamegraph.hpp"
#include "observe/histogram.hpp"
#include "observe/metrics.hpp"
#include "observe/run_registry.hpp"
#include "observe/sampler.hpp"
#include "observe/trace.hpp"

#include <gtest/gtest.h>

#include <type_traits>

namespace {

using pls::observe::CounterTotals;
using pls::observe::EventKind;
using pls::observe::Span;
using pls::observe::TraceRecorder;

// The no-op-codegen contract, checked at compile time: a killed Span
// carries no state (nothing for the optimizer to keep alive), and the
// layer reports itself as disabled.
static_assert(!pls::observe::kEnabled);
static_assert(std::is_empty_v<Span>);
static_assert(std::is_empty_v<pls::observe::CounterBlock>);
static_assert(std::is_empty_v<pls::observe::Histogram>);
static_assert(std::is_empty_v<pls::observe::HistogramBlock>);
static_assert(std::is_empty_v<pls::observe::ObserveSlot>);
static_assert(std::is_empty_v<pls::observe::CpScope>);
static_assert(std::is_empty_v<pls::observe::LatencyTimer>);
static_assert(std::is_empty_v<pls::observe::TraceSession>);
static_assert(std::is_empty_v<pls::observe::ProfileSession>);
// The continuous-telemetry layer collapses the same way: registry,
// sampler ring, run history and the RAII session all carry no state.
static_assert(std::is_empty_v<pls::observe::MetricsRegistry>);
static_assert(std::is_empty_v<pls::observe::MetricsSession>);
static_assert(std::is_empty_v<pls::observe::SampleRing>);
static_assert(std::is_empty_v<pls::observe::RunRegistry>);

TEST(KillSwitch, CountersAreInert) {
  auto& block = pls::observe::local_counters();
  block.on_task_executed();
  block.on_steal(true);
  block.on_split(9);
  block.on_leaf(1000);
  block.on_fused_leaf();
  block.on_combine();
  const CounterTotals t = block.snapshot();
  EXPECT_EQ(t.tasks_executed, 0u);
  EXPECT_EQ(t.steals, 0u);
  EXPECT_EQ(t.splits, 0u);
  EXPECT_EQ(t.elements_accumulated, 0u);
  EXPECT_EQ(t.fused_leaves, 0u);
  EXPECT_EQ(t.combines, 0u);

  const CounterTotals agg = pls::observe::aggregate_counters();
  EXPECT_EQ(agg.tasks_executed, 0u);
  EXPECT_TRUE(pls::observe::SlotRegistry::global().per_worker().empty());
}

TEST(KillSwitch, RecorderCannotBeEnabled) {
  auto& rec = TraceRecorder::global();
  rec.enable();
  EXPECT_FALSE(rec.enabled());
  {
    Span s(EventKind::kSplit, 1);
    s.set_arg(2);
  }
  pls::observe::instant(EventKind::kSteal);
  rec.record(EventKind::kTask, 0, 100);
  rec.record_virtual(EventKind::kCombine, 0, 0.0, 1.0);
  EXPECT_TRUE(rec.events().empty());
}

TEST(KillSwitch, ExportIsEmptyButValid) {
  const std::string json = TraceRecorder::global().chrome_json();
  EXPECT_EQ(json, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
}

TEST(KillSwitch, CriticalPathLayerIsInert) {
  auto& rec = pls::observe::CriticalPathRecorder::global();
  rec.enable();
  EXPECT_FALSE(rec.enabled());
  pls::observe::CpNode* root = pls::observe::cp_new_root();
  EXPECT_EQ(root, nullptr);
  const auto [l, r] = pls::observe::cp_fork(root);
  EXPECT_EQ(l, nullptr);
  EXPECT_EQ(r, nullptr);
  pls::observe::cp_add_elements(root, 128);
  {
    pls::observe::CpScope scope(root, pls::observe::CpPhase::kAccumulate);
  }
  EXPECT_EQ(rec.node_count(), 0u);
  const auto stats = rec.analyze(1.0);
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.work_ns, 0.0);
  EXPECT_TRUE(pls::observe::flamegraph_folded(rec).empty());
}

TEST(KillSwitch, HistogramsAreInert) {
  auto& block = pls::observe::local_histograms();
  block.record(pls::observe::Metric::kTaskRun, 1000);
  {
    pls::observe::LatencyTimer t(block, pls::observe::Metric::kStealLatency);
  }
  const auto agg = pls::observe::aggregate_histograms();
  for (std::size_t i = 0; i < pls::observe::kMetricCount; ++i) {
    EXPECT_TRUE(agg.metric[i].empty());
  }
  // Snapshot arithmetic stays real in both modes (reporting contract).
  pls::observe::HistogramSnapshot s;
  ++s.counts[pls::observe::histogram_bucket(8)];
  ++s.total;
  s.sum = 8;
  s.max_value = 8;
  EXPECT_EQ((s + s).total, 2u);
  EXPECT_GT(s.quantile(0.5), 0.0);
}

TEST(KillSwitch, TelemetryLayerIsInert) {
  // Registry: sources are dropped, collection yields nothing.
  auto& reg = pls::observe::MetricsRegistry::global();
  const auto token = reg.add_source([](pls::observe::MetricsSample& s) {
    s.rows.push_back(pls::observe::MetricRow{});
  });
  EXPECT_EQ(token, 0u);
  EXPECT_TRUE(reg.collect().rows.empty());
  reg.remove_source(token);

  // Sampler: start() refuses, the ring never fills.
  auto& sampler = pls::observe::MetricsSampler::global();
  EXPECT_FALSE(sampler.start(1));
  EXPECT_FALSE(sampler.running());
  sampler.ring().push(pls::observe::MetricsSample{});
  EXPECT_EQ(sampler.ring().size(), 0u);
  EXPECT_TRUE(sampler.ring().samples().empty());
  sampler.stop();

  // Run registry: appends vanish.
  auto& runs = pls::observe::RunRegistry::global();
  runs.append(pls::observe::RunRecord{});
  EXPECT_EQ(runs.total(), 0u);
  EXPECT_TRUE(runs.records().empty());

  // Exporter: cannot be armed, flush writes nothing.
  auto& log = pls::observe::MetricsLog::global();
  log.enable();
  log.set_output_path("should-not-be-written.jsonl");
  EXPECT_TRUE(log.output_path().empty());
  EXPECT_FALSE(log.flush());
  { pls::observe::MetricsSession session(1); }

  // The exposition writer stays real in both modes (reporting contract):
  // a synthetic sample still renders grammar-valid text.
  pls::observe::MetricsSample sample;
  sample.rows.push_back(pls::observe::MetricRow{
      "pls_demo_total", pls::observe::MetricKind::kCounter, 1.0, "", "",
      "demo"});
  const std::string text = pls::observe::prometheus_text(sample);
  EXPECT_NE(text.find("# TYPE pls_demo_total counter"), std::string::npos);
  EXPECT_NE(text.find("pls_demo_total 1"), std::string::npos);
}

TEST(KillSwitch, TotalsStillUsableForReporting) {
  // CounterTotals stays a real struct in both modes so reporting code
  // (RunRecord, bench JSON) needs no #if.
  CounterTotals a;
  a.steals = 2;
  CounterTotals b;
  b.steals = 3;
  a += b;
  EXPECT_EQ(a.steals, 5u);
}

}  // namespace
