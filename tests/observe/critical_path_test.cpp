// Critical-path recorder contract: T1/T∞/phase attribution on hand-built
// DAGs with scale = 1.0 (ticks are nanoseconds, so the expected numbers
// are exact), serial composition of roots, the folded flamegraph export,
// and a sanity check that the span measured on a real profiled run stays
// within a (generously) documented factor of the simmachine prediction.
#include "observe/critical_path.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "observe/flamegraph.hpp"
#include "observe/run_registry.hpp"
#include "powerlist/algorithms/map_reduce.hpp"
#include "powerlist/executors.hpp"
#include "simmachine/costmodel.hpp"
#include "simmachine/scheduler.hpp"
#include "simmachine/trace.hpp"

namespace {

namespace obs = pls::observe;
using obs::CpPhase;
using obs::CriticalPathRecorder;

class CriticalPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kEnabled) {
      GTEST_SKIP() << "PLS_OBSERVE=0: recorder is a no-op shell "
                      "(covered by killswitch_test)";
    }
    CriticalPathRecorder::global().clear();
    CriticalPathRecorder::global().enable();
  }

  void TearDown() override {
    CriticalPathRecorder::global().disable();
    CriticalPathRecorder::global().clear();
  }
};

TEST_F(CriticalPathTest, HandBuiltTreeWorkSpanAndPhases) {
  auto& rec = CriticalPathRecorder::global();
  // root splits (10), children accumulate (left 100, right 40),
  // root combines (5): T1 = 155, T∞ = 10 + 5 + max(100, 40) = 115.
  obs::CpNode* root = rec.new_root();
  root->add_time(CpPhase::kSplit, 10);
  root->add_time(CpPhase::kCombine, 5);
  auto [l, r] = rec.fork(root);
  l->add_time(CpPhase::kAccumulate, 100);
  l->elements += 64;
  r->add_time(CpPhase::kAccumulate, 40);
  r->elements += 64;

  const auto s = rec.analyze(/*scale=*/1.0);
  EXPECT_DOUBLE_EQ(s.work_ns, 155.0);
  EXPECT_DOUBLE_EQ(s.span_ns, 115.0);
  EXPECT_DOUBLE_EQ(s.parallelism(), 155.0 / 115.0);
  EXPECT_DOUBLE_EQ(s.brent_bound_ns(2), 155.0 / 2.0 + 115.0);
  EXPECT_DOUBLE_EQ(s.phases.split_ns, 10.0);
  EXPECT_DOUBLE_EQ(s.phases.accumulate_ns, 140.0);
  EXPECT_DOUBLE_EQ(s.phases.combine_ns, 5.0);
  EXPECT_EQ(s.nodes, 3u);
  EXPECT_EQ(s.leaves, 2u);
  EXPECT_EQ(s.elements, 128u);
  EXPECT_EQ(s.max_depth, 1u);
}

TEST_F(CriticalPathTest, DeeperTreeSpanFollowsHeaviestPath) {
  auto& rec = CriticalPathRecorder::global();
  obs::CpNode* root = rec.new_root();
  root->add_time(CpPhase::kSplit, 1);
  auto [l, r] = rec.fork(root);
  l->add_time(CpPhase::kAccumulate, 10);
  r->add_time(CpPhase::kSplit, 2);
  auto [rl, rr] = rec.fork(r);
  rl->add_time(CpPhase::kAccumulate, 7);
  rr->add_time(CpPhase::kAccumulate, 30);

  // Heaviest root-to-leaf path: root(1) -> r(2) -> rr(30) = 33.
  const auto s = rec.analyze(1.0);
  EXPECT_DOUBLE_EQ(s.work_ns, 50.0);
  EXPECT_DOUBLE_EQ(s.span_ns, 33.0);
  EXPECT_EQ(s.max_depth, 2u);
  EXPECT_EQ(s.leaves, 3u);
}

TEST_F(CriticalPathTest, RootsComposeSerially) {
  auto& rec = CriticalPathRecorder::global();
  obs::CpNode* a = rec.new_root();
  a->add_time(CpPhase::kAccumulate, 40);
  obs::CpNode* b = rec.new_root();
  b->add_time(CpPhase::kAccumulate, 25);

  // Two terminal operations recorded in one window ran one after the
  // other, so their spans add: T∞ = 40 + 25.
  const auto s = rec.analyze(1.0);
  EXPECT_DOUBLE_EQ(s.work_ns, 65.0);
  EXPECT_DOUBLE_EQ(s.span_ns, 65.0);
}

TEST_F(CriticalPathTest, PhaseTableListsEveryPhaseAndStealIdle) {
  auto& rec = CriticalPathRecorder::global();
  obs::CpNode* root = rec.new_root();
  root->add_time(CpPhase::kSplit, 100);
  auto [l, r] = rec.fork(root);
  l->add_time(CpPhase::kAccumulate, 500);
  r->add_time(CpPhase::kCombine, 200);

  const auto s = rec.analyze(1.0);
  const std::string table = s.phase_table(/*wall_ns=*/1000.0, /*workers=*/2);
  EXPECT_NE(table.find("split"), std::string::npos);
  EXPECT_NE(table.find("accumulate"), std::string::npos);
  EXPECT_NE(table.find("combine"), std::string::npos);
  EXPECT_NE(table.find("steal-idle"), std::string::npos);
  // Without a wall-clock bound there is no idle row.
  const std::string bare = s.phase_table();
  EXPECT_EQ(bare.find("steal-idle"), std::string::npos);
}

TEST_F(CriticalPathTest, FlamegraphFoldedFormat) {
  auto& rec = CriticalPathRecorder::global();
  obs::CpNode* root = rec.new_root();
  root->add_time(CpPhase::kSplit, 4000);
  auto [l, r] = rec.fork(root);
  l->add_time(CpPhase::kAccumulate, 8000);
  r->add_time(CpPhase::kAccumulate, 6000);

  // Scale 1000 ns/tick makes one tick one microsecond of folded weight.
  std::ostringstream os;
  obs::write_flamegraph(os, rec, /*ns_per_tick_scale=*/1000.0);
  const std::string folded = os.str();
  EXPECT_NE(folded.find("root#0;split 4000\n"), std::string::npos);
  EXPECT_NE(folded.find("root#0;L;accumulate 8000\n"), std::string::npos);
  EXPECT_NE(folded.find("root#0;R;accumulate 6000\n"), std::string::npos);
  // Every line is "stack weight": ends in a digit, frames ';'-separated.
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(line.back())))
        << line;
    EXPECT_NE(line.find(';'), std::string::npos) << line;
  }
}

TEST_F(CriticalPathTest, MeasuredSpanSanityAgainstSimulation) {
  // Profile a real fork-join reduce and compare the measured critical
  // path against the simmachine's prediction for the same tree shape.
  // Measured time on a shared single-CPU host is noisy and the sim's
  // cost model is calibrated per-element, so the contract is deliberately
  // loose: structural invariants must hold exactly (span <= work,
  // parallelism >= 1, span on the order of the tree depth) and the
  // measured/simulated span ratio must stay within a factor of 200 —
  // enough to catch unit mistakes (ms vs ns) and attribution bugs while
  // never tripping on scheduler jitter.
  pls::forkjoin::ForkJoinPool pool(2);
  constexpr std::size_t kN = 1 << 14;
  constexpr std::size_t kLeaf = 1 << 8;
  std::vector<long> data(kN);
  std::iota(data.begin(), data.end(), 1);
  pls::powerlist::ReduceFunction<long, std::plus<long>> sum{
      std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));

  const obs::ProfileSession profile;
  ASSERT_EQ(pls::powerlist::execute_forkjoin(pool, sum, view, {}, kLeaf),
            static_cast<long>(kN) * (kN + 1) / 2);
  const auto p = profile.stats();
  ASSERT_FALSE(p.empty());

  EXPECT_GT(p.work_ns, 0.0);
  EXPECT_GT(p.span_ns, 0.0);
  EXPECT_LE(p.span_ns, p.work_ns + 1.0);
  EXPECT_GE(p.parallelism(), 1.0 - 1e-9);
  EXPECT_EQ(p.leaves, kN / kLeaf);
  EXPECT_EQ(p.elements, kN);

  // Simulate the same balanced tree (2^6 leaves of 2^8 elements) with a
  // cost model calibrated so one abstract op is one element, priced at
  // the measured per-element accumulate time.
  const double accum_ns = std::max(p.phases.accumulate_ns, 1.0);
  const auto model = pls::simmachine::CostModel::calibrated(
      accum_ns, static_cast<double>(kN));
  const auto trace = pls::simmachine::TaskTrace::balanced(
      /*levels=*/6, kN,
      [](std::size_t len) { return static_cast<double>(len); },
      [](std::size_t) { return 50.0; }, [](std::size_t) { return 50.0; });
  const auto sim = pls::simmachine::Simulator(model, 2).run(trace);

  ASSERT_GT(sim.span_ns, 0.0);
  const double ratio = p.span_ns / sim.span_ns;
  EXPECT_GT(ratio, 1.0 / 200.0) << "measured span implausibly small";
  EXPECT_LT(ratio, 200.0) << "measured span implausibly large";

  // The human-readable summary is populated for profiled runs; the run's
  // wall time comes from its RunRecord.
  const auto runs = obs::RunRegistry::global().records();
  ASSERT_FALSE(runs.empty());
  const std::string summary =
      p.profile_summary(runs.back().wall_ms * 1e6, pool.parallelism());
  EXPECT_NE(summary.find("work T1"), std::string::npos);
  EXPECT_NE(summary.find("parallelism"), std::string::npos);
  EXPECT_NE(summary.find("steal-idle"), std::string::npos);
}

}  // namespace
