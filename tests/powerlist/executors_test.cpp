// The PowerFunction skeleton under all three executors: sequential,
// fork-join, and simulated, plus the fork-join run's RunRecord, whose
// counter delta is checked against the closed-form shape. One simple
// function (sum via reduce shape) and one context-carrying function
// exercise every hook; FFT and the polynomial pin the simulated schedule.
#include "powerlist/executors.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "observe/run_registry.hpp"
#include "powerlist/algorithms/fft.hpp"
#include "powerlist/algorithms/map_reduce.hpp"
#include "powerlist/algorithms/polynomial.hpp"

namespace {

using pls::forkjoin::ForkJoinPool;
using pls::observe::RunRecord;
using pls::observe::RunRegistry;
using pls::powerlist::decomposition_shape;
using pls::powerlist::execute_forkjoin;
using pls::powerlist::execute_sequential;
using pls::powerlist::execute_simulated;
using pls::powerlist::PowerListView;
using pls::powerlist::ReduceFunction;
using pls::simmachine::CostModel;
using pls::simmachine::Simulator;

std::vector<long> iota(std::size_t n) {
  std::vector<long> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

// One fork-join run and the RunRecord it appended (a blank record when
// PLS_OBSERVE=0, where nothing is recorded).
template <typename F, typename V>
std::pair<long, RunRecord> recorded_run(ForkJoinPool& pool, const F& f,
                                        V view, std::size_t leaf) {
  const std::uint64_t before = RunRegistry::global().total();
  const long result = execute_forkjoin(pool, f, view, {}, leaf);
  const auto runs = RunRegistry::global().records_since(before);
  EXPECT_EQ(runs.size(), pls::observe::kEnabled ? 1u : 0u);
  return {result, runs.empty() ? RunRecord{} : runs.back()};
}

TEST(Executors, SequentialReduce) {
  auto data = iota(64);
  ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const long r = execute_sequential(sum, pls::powerlist::view_of(
                                             std::as_const(data)));
  EXPECT_EQ(r, 64 * 65 / 2);
}

TEST(Executors, SequentialSingleton) {
  std::vector<long> data{42};
  ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  EXPECT_EQ(execute_sequential(sum,
                               pls::powerlist::view_of(std::as_const(data))),
            42);
}

TEST(Executors, LeafSizeSweepGivesSameResult) {
  auto data = iota(256);
  ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  const long expected = 256 * 257 / 2;
  for (std::size_t leaf : {1u, 2u, 4u, 16u, 64u, 256u, 1024u}) {
    EXPECT_EQ(execute_sequential(sum, view, {}, leaf), expected)
        << "leaf=" << leaf;
  }
}

TEST(Executors, InvalidLeafSizeThrows) {
  auto data = iota(8);
  ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  EXPECT_THROW(execute_sequential(
                   sum, pls::powerlist::view_of(std::as_const(data)), {}, 0),
               pls::precondition_error);
}

TEST(Executors, ForkJoinMatchesSequential) {
  ForkJoinPool pool(4);
  auto data = iota(1024);
  ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  EXPECT_EQ(execute_forkjoin(pool, sum, view, {}, 16),
            execute_sequential(sum, view, {}, 16));
}

TEST(Executors, ForkJoinPolynomialWithContext) {
  ForkJoinPool pool(4);
  // Ascending coefficients: value = sum coeffs[i] * x^i.
  std::vector<double> coeffs(64);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    coeffs[i] = static_cast<double>(i % 5) - 2.0;
  }
  const double x = 0.97;
  pls::powerlist::PolynomialFunction<double> vp;
  const auto view = pls::powerlist::view_of(std::as_const(coeffs));
  const double seq = execute_sequential(vp, view, x, 4);
  const double par = execute_forkjoin(pool, vp, view, x, 4);
  const double reference = pls::powerlist::horner_ascending(view, x);
  EXPECT_NEAR(seq, reference, 1e-9);
  EXPECT_NEAR(par, reference, 1e-9);
}

TEST(Executors, SimulatedProducesSameResultPlusSchedule) {
  auto data = iota(256);
  ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  CostModel m;
  m.ns_per_op = 2.0;
  Simulator sim(m, 8);
  const auto ex = execute_simulated(sim, sum, view, {}, 4);
  EXPECT_EQ(ex.result, 256 * 257 / 2);
  EXPECT_GT(ex.sim.makespan_ns, 0.0);
  EXPECT_EQ(ex.sim.processors, 8u);
  // 64 leaves of cost 4 ops + 63 forks: pure work = 64*4 + 63*1 ops.
  EXPECT_DOUBLE_EQ(ex.sim.pure_work_ns, (64 * 4 + 63) * 2.0);
}

TEST(Executors, SimulatedSpeedupGrowsWithProcessors) {
  auto data = iota(1u << 14);
  ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  CostModel m;  // default overheads
  double prev_makespan = 0.0;
  for (unsigned p : {1u, 2u, 4u, 8u}) {
    const auto ex = execute_simulated(Simulator(m, p), sum, view, {}, 64);
    if (p > 1) {
      EXPECT_LT(ex.sim.makespan_ns, prev_makespan);
    }
    prev_makespan = ex.sim.makespan_ns;
  }
}

TEST(Executors, InstrumentedCountsMatchTreeShape) {
  // The shape is closed form; with observe on, the counters the walk
  // bumps at every node measure the same tree independently, and the
  // run's RunRecord carries their delta.
  ForkJoinPool pool(4);
  auto data = iota(256);
  ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  // leaf 32 over 256: 8 leaves, 7 forks, depth 3.
  const auto shape = decomposition_shape(data.size(), 32);
  EXPECT_EQ(shape.basic_cases, 8u);
  EXPECT_EQ(shape.combines, 7u);
  EXPECT_EQ(shape.descends, 7u);
  EXPECT_EQ(shape.max_depth, 3u);
  EXPECT_EQ(shape.min_leaf_length, 32u);
  EXPECT_EQ(shape.max_leaf_length, 32u);
  const auto [result, run] = recorded_run(pool, sum, view, 32);
  EXPECT_EQ(result, 256 * 257 / 2);
  if (pls::observe::kEnabled) {
    EXPECT_EQ(run.counters.leaf_chunks, shape.basic_cases);
    EXPECT_EQ(run.counters.forks, shape.descends);
    EXPECT_EQ(run.counters.combines, shape.combines);
    // The sequential executor runs the same walk, so it counts the same
    // tree on the calling thread's block (no forks: nothing is pushed).
    const auto before = pls::observe::aggregate_counters();
    EXPECT_EQ(execute_sequential(sum, view, {}, 32), result);
    const auto seq = pls::observe::aggregate_counters() - before;
    EXPECT_EQ(seq.leaf_chunks, shape.basic_cases);
    EXPECT_EQ(seq.splits, shape.descends);
    EXPECT_EQ(seq.combines, shape.combines);
    EXPECT_EQ(seq.forks, 0u);
  }
}

TEST(Executors, InstrumentedSingleLeaf) {
  ForkJoinPool pool(2);
  auto data = iota(64);
  ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  const auto shape = decomposition_shape(data.size(), 64);
  EXPECT_EQ(shape.basic_cases, 1u);
  EXPECT_EQ(shape.combines, 0u);
  EXPECT_EQ(shape.max_depth, 0u);
  const auto [result, run] = recorded_run(pool, sum, view, 64);
  EXPECT_EQ(result, 64 * 65 / 2);
  if (pls::observe::kEnabled) {
    EXPECT_EQ(run.counters.leaf_chunks, 1u);
    EXPECT_EQ(run.counters.forks, 0u);
    EXPECT_EQ(run.counters.combines, 0u);
  }
}

TEST(Executors, InstrumentedUniformLeafDepths) {
  // Power-of-two halving always produces uniform leaves — the property
  // the paper's PolynomialValue mechanism depends on. The counters see
  // every leaf chunk, so leaves * leaf length must cover the input.
  ForkJoinPool pool(4);
  auto data = iota(1 << 10);
  ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  for (std::size_t leaf : {3u, 5u, 100u}) {  // non-power-of-two thresholds
    const auto shape = decomposition_shape(data.size(), leaf);
    EXPECT_EQ(shape.min_leaf_length, shape.max_leaf_length)
        << "leaf=" << leaf;
    EXPECT_LE(shape.max_leaf_length, leaf) << "leaf=" << leaf;
    EXPECT_EQ(shape.basic_cases * shape.max_leaf_length, data.size())
        << "leaf=" << leaf;
    const auto run = recorded_run(pool, sum, view, leaf).second;
    if (pls::observe::kEnabled) {
      EXPECT_EQ(run.counters.leaf_chunks, shape.basic_cases)
          << "leaf=" << leaf;
      EXPECT_EQ(run.counters.elements_accumulated, data.size())
          << "leaf=" << leaf;
    }
  }
}

TEST(Executors, UnifiedReportFromSimulatedRun) {
  // The simulated run schedules the same closed-form tree the real
  // executors decompose into.
  auto data = iota(256);
  ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  CostModel m;
  m.ns_per_op = 2.0;
  const auto ex = execute_simulated(Simulator(m, 8), sum, view, {}, 4);
  EXPECT_EQ(ex.result, 256 * 257 / 2);
  const auto shape = decomposition_shape(view.length(), 4);
  EXPECT_EQ(shape.basic_cases, 64u);  // 256 / 4
  EXPECT_EQ(shape.descends, 63u);
  EXPECT_EQ(shape.max_depth, 6u);
  EXPECT_EQ(shape.min_leaf_length, 4u);
  // 64 leaves of cost 4 ops + 63 forks: pure work = 64*4 + 63*1 ops.
  EXPECT_DOUBLE_EQ(ex.sim.pure_work_ns,
                   (shape.basic_cases * 4 + shape.descends) * 2.0);
}

TEST(Executors, ForkJoinReportedMatchesSequential) {
  ForkJoinPool pool(4);
  auto data = iota(1024);
  ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  const auto [result, run] = recorded_run(pool, sum, view, 16);
  EXPECT_EQ(result, execute_sequential(sum, view, {}, 16));
  const auto shape = decomposition_shape(data.size(), 16);
  EXPECT_EQ(shape.basic_cases, 64u);
  EXPECT_EQ(shape.descends, 63u);
  EXPECT_EQ(shape.combines, 63u);
  EXPECT_EQ(shape.max_depth, 6u);
  EXPECT_EQ(shape.min_leaf_length, 16u);
  EXPECT_EQ(shape.max_leaf_length, 16u);
  if (pls::observe::kEnabled) {
    // The record names the synthesized plan and sees the run's
    // decomposition: 64 leaves, 63 forks.
    EXPECT_STREQ(run.terminal, "power_function");
    EXPECT_STREQ(run.origin, "synthesized");
    EXPECT_EQ(run.source_size, 1024u);
    EXPECT_EQ(run.grain, 16u);
    EXPECT_EQ(run.parallelism, 4u);
    EXPECT_EQ(run.counters.leaf_chunks, 64u);
    EXPECT_EQ(run.counters.forks, 63u);
    EXPECT_EQ(run.counters.elements_accumulated, 1024u);
  }
}

TEST(Executors, ForkJoinReportedCountsStayExactAcrossThreadChurn) {
  // More worker threads than the counter registry has slots register over
  // the test, one 4-worker pool at a time: exited workers' slots are
  // recycled, so every pool's own delta and every run record still count
  // each leaf once.
  ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  auto data = iota(256);
  const auto view = pls::powerlist::view_of(std::as_const(data));
  constexpr unsigned kWorkers = 4;
  const std::size_t pools =
      1100 / kWorkers + 1;  // > 1100 registrations > kMaxSlots = 1024
  for (std::size_t i = 0; i < pools; ++i) {
    ForkJoinPool pool(kWorkers);
    const auto pool_before = pool.counter_totals();
    const auto [result, run] = recorded_run(pool, sum, view, 16);
    const auto pool_delta = pool.counter_totals() - pool_before;
    ASSERT_EQ(result, 256L * 257L / 2L);
    if (pls::observe::kEnabled) {
      ASSERT_EQ(pool_delta.leaf_chunks, 256u / 16u) << "pool " << i;
      ASSERT_EQ(pool_delta.elements_accumulated, 256u) << "pool " << i;
      ASSERT_EQ(run.counters.leaf_chunks, 256u / 16u) << "pool " << i;
      ASSERT_EQ(run.counters.elements_accumulated, 256u) << "pool " << i;
    }
  }
}

TEST(Executors, ForkJoinAndSimulatedRunsAgree) {
  ForkJoinPool pool(2);
  auto data = iota(64);
  ReduceFunction<long, std::plus<long>> sum{std::plus<long>{}};
  const auto view = pls::powerlist::view_of(std::as_const(data));
  const auto [result, run] = recorded_run(pool, sum, view, 8);
  const auto sim =
      execute_simulated(Simulator(CostModel{}, 2), sum, view, {}, 8);
  EXPECT_EQ(result, sim.result);
  EXPECT_GT(sim.sim.makespan_ns, 0.0);
  EXPECT_EQ(decomposition_shape(data.size(), 8).basic_cases, 8u);
  if (pls::observe::kEnabled) {
    EXPECT_EQ(run.counters.leaf_chunks, 8u);
  }
}

TEST(Executors, RunRecordWallTimeExcludesClockCalibration) {
  // The first record of a process calibrates the tick clock (a 2 ms busy
  // wait in observe::ns_per_tick()); that wait is not the run's time, and
  // an empty run scope takes microseconds. Where an earlier test in the
  // same process already calibrated the clock, this holds trivially.
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  const std::uint64_t before = RunRegistry::global().total();
  { pls::streams::RunScope scope(pls::streams::ExecutionPlan{}); }
  const auto runs = RunRegistry::global().records_since(before);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_LT(runs[0].wall_ms, 1.9);
}

struct PinnedSim {
  unsigned processors;
  double makespan_ns;
  double work_ns;
  double span_ns;
  std::uint64_t steals;
  std::uint64_t segments;
};

void expect_pinned(const pls::simmachine::SimResult& got,
                   const PinnedSim& want) {
  EXPECT_EQ(got.makespan_ns, want.makespan_ns) << "P=" << want.processors;
  EXPECT_EQ(got.work_ns, want.work_ns) << "P=" << want.processors;
  EXPECT_EQ(got.span_ns, want.span_ns) << "P=" << want.processors;
  EXPECT_EQ(got.steals, want.steals) << "P=" << want.processors;
  EXPECT_EQ(got.segments, want.segments) << "P=" << want.processors;
}

TEST(Executors, SimulatedScheduleIsPinned) {
  // Exact schedules under the default cost model. Any change in the task
  // tree's nodes, their costs or their post-order moves the steals and
  // the makespans, so these pin the closed-form tree.
  std::vector<pls::powerlist::Complex> signal(1 << 10);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    signal[i] = pls::powerlist::Complex(static_cast<double>(i % 7),
                                        -static_cast<double>(i % 3));
  }
  std::vector<double> coeffs(1 << 12);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    coeffs[i] = static_cast<double>(i % 5) - 2.0;
  }
  const pls::powerlist::FftFunction fft;  // zip, combine cost 10/elem
  const pls::powerlist::PolynomialFunction<double> vp;  // descend cost 1
  const PinnedSim fft_pins[] = {{1, 191188, 191188, 20528, 0, 766},
                                {3, 80118, 191188, 20528, 11, 766},
                                {8, 43160, 191188, 20528, 22, 766}};
  const PinnedSim vp_pins[] = {{1, 85457, 85457, 56, 0, 766},
                               {3, 31937, 85457, 56, 12, 766},
                               {8, 14400, 85457, 56, 32, 766}};
  for (const PinnedSim& pin : fft_pins) {
    const Simulator sim(CostModel{}, pin.processors);
    expect_pinned(execute_simulated(sim, fft,
                                    pls::powerlist::view_of(
                                        std::as_const(signal)),
                                    pls::powerlist::NoContext{}, 4)
                      .sim,
                  pin);
  }
  for (const PinnedSim& pin : vp_pins) {
    const Simulator sim(CostModel{}, pin.processors);
    expect_pinned(
        execute_simulated(sim, vp,
                          pls::powerlist::view_of(std::as_const(coeffs)),
                          0.97, 16)
            .sim,
        pin);
  }
}

TEST(Executors, ZipReduceSameAsTieForCommutativeOp) {
  auto data = iota(128);
  const auto view = pls::powerlist::view_of(std::as_const(data));
  ReduceFunction<long, std::plus<long>> tie_sum{
      std::plus<long>{}, pls::powerlist::DecompositionOp::kTie};
  ReduceFunction<long, std::plus<long>> zip_sum{
      std::plus<long>{}, pls::powerlist::DecompositionOp::kZip};
  EXPECT_EQ(execute_sequential(tie_sum, view, {}, 2),
            execute_sequential(zip_sum, view, {}, 2));
}

}  // namespace
