// Counter blocks and the slot registry: single-thread semantics,
// cross-thread aggregation, slot recycling across thread churn, and the
// fork-join pool's per-worker steal accounting.
#include "observe/counters.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "forkjoin/pool.hpp"

namespace {

using pls::observe::CounterTotals;
using pls::observe::kEnabled;
using pls::observe::local_counters;

TEST(Counters, TotalsArithmetic) {
  CounterTotals a;
  a.tasks_executed = 10;
  a.steals = 3;
  a.max_split_depth = 4;
  CounterTotals b;
  b.tasks_executed = 1;
  b.steals = 2;
  b.max_split_depth = 7;
  CounterTotals sum = a;
  sum += b;
  EXPECT_EQ(sum.tasks_executed, 11u);
  EXPECT_EQ(sum.steals, 5u);
  EXPECT_EQ(sum.max_split_depth, 7u);  // max, not sum

  const CounterTotals delta = sum - a;
  EXPECT_EQ(delta.tasks_executed, 1u);
  EXPECT_EQ(delta.steals, 2u);
  EXPECT_EQ(delta.max_split_depth, 7u);  // later snapshot's value kept
}

TEST(Counters, BlockCountsAndResets) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  auto& block = local_counters();
  const CounterTotals before = block.snapshot();
  block.on_task_executed();
  block.on_steal(true);
  block.on_steal(false);
  block.on_steal(false);
  block.on_fork();
  block.on_split(5);
  block.on_split(2);
  block.on_leaf(128);
  block.on_combine();
  const CounterTotals delta = block.snapshot() - before;
  EXPECT_EQ(delta.tasks_executed, 1u);
  EXPECT_EQ(delta.steals, 1u);
  EXPECT_EQ(delta.steal_failures, 2u);
  EXPECT_EQ(delta.forks, 1u);
  EXPECT_EQ(delta.splits, 2u);
  EXPECT_GE(delta.max_split_depth, 5u);
  EXPECT_EQ(delta.elements_accumulated, 128u);
  EXPECT_EQ(delta.leaf_chunks, 1u);
  EXPECT_EQ(delta.combines, 1u);
}

TEST(Counters, LocalBlockIsPerThread) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  auto* mine = &local_counters();
  pls::observe::CounterBlock* theirs = nullptr;
  std::thread t([&] { theirs = &local_counters(); });
  t.join();
  EXPECT_NE(mine, theirs);
  // Stable across calls on the same thread.
  EXPECT_EQ(mine, &local_counters());
}

TEST(Counters, AggregateSeesOtherThreads) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  const CounterTotals before = pls::observe::aggregate_counters();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([] {
      for (int k = 0; k < 100; ++k) local_counters().on_combine();
    });
  }
  for (auto& t : threads) t.join();
  const CounterTotals delta = pls::observe::aggregate_counters() - before;
  EXPECT_EQ(delta.combines, 100u * kThreads);
}

/// Whether the pool's steal-failure tally and its per-worker blocks agree,
/// from a consistent read. Idle workers keep sweeping after run() returns
/// and bump the two counts one after the other, so read tally, blocks,
/// tally until all three are equal (a bounded number of times).
bool steal_failures_agree(const pls::forkjoin::ForkJoinPool& pool) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const std::uint64_t first = pool.steal_failure_count();
    const std::uint64_t blocks = pool.counter_totals().steal_failures;
    const std::uint64_t last = pool.steal_failure_count();
    if (first == last && blocks == first) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return false;
}

TEST(Counters, PoolPerWorkerStealAccounting) {
  pls::forkjoin::ForkJoinPool pool(4);
  // Irregular fan-out forces real stealing between the four workers.
  struct Rec {
    pls::forkjoin::ForkJoinPool& pool;
    long go(int depth) {
      if (depth == 0) return 1;
      long a = 0, b = 0;
      pool.invoke_two([&] { a = go(depth - 1); }, [&] { b = go(depth - 1); });
      return a + b;
    }
  } rec{pool};
  const long leaves = pool.run([&] { return rec.go(12); });
  EXPECT_EQ(leaves, 1 << 12);

  // Pool-level tallies and per-worker blocks must agree.
  const auto totals = pool.counter_totals();
  const auto per_worker = pool.per_worker_counters();
  EXPECT_EQ(per_worker.size(), 4u);
  if (!kEnabled) {
    EXPECT_EQ(totals.tasks_executed, 0u);
    return;
  }
  EXPECT_EQ(totals.steals, pool.steal_count());
  EXPECT_TRUE(steal_failures_agree(pool));
  // Every forked child is executed exactly once, plus the one external run.
  EXPECT_EQ(totals.tasks_executed, totals.forks + 1);
  CounterTotals recomputed;
  for (const auto& w : per_worker) recomputed += w;
  EXPECT_EQ(recomputed.tasks_executed, totals.tasks_executed);
  EXPECT_EQ(recomputed.steals, totals.steals);
}

TEST(Counters, RegistryLabelsWorkers) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  pls::forkjoin::ForkJoinPool pool(2);
  pool.run([] { return 0; });
  bool found_worker_label = false;
  for (const auto& w : pls::observe::SlotRegistry::global().per_worker()) {
    if (w.label.rfind("fj-worker-", 0) == 0) found_worker_label = true;
  }
  EXPECT_TRUE(found_worker_label);
}

TEST(Histograms, SlotsRecycleAcrossThreadChurn) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  using pls::observe::HistogramBlock;
  using pls::observe::Metric;
  const auto task_runs = [] {
    return pls::observe::aggregate_histograms().of(Metric::kTaskRun).total;
  };
  const HistogramBlock* const main_block = &pls::observe::local_histograms();
  const std::uint64_t before = task_runs();
  std::uint64_t last = before;
  int on_main_block = 0;
  int on_used_block = 0;
  // One short-lived thread at a time: each must get a clean slot of its
  // own, whatever the slot limit, because exited threads return theirs.
  for (int i = 0; i < 300; ++i) {
    const HistogramBlock* block = nullptr;
    std::uint64_t block_total = 0;
    std::thread t([&] {
      block = &pls::observe::local_histograms();
      pls::observe::local_histograms().record(Metric::kTaskRun, 1000);
      block_total = block->snapshot(Metric::kTaskRun).total;
    });
    t.join();
    if (block == main_block) ++on_main_block;
    if (block_total != 1) ++on_used_block;  // a block someone recorded into
    const std::uint64_t now = task_runs();
    EXPECT_GE(now, last) << "aggregate fell across the exit of thread " << i;
    last = now;
  }
  EXPECT_EQ(on_main_block, 0);
  EXPECT_EQ(on_used_block, 0);
  EXPECT_EQ(last - before, 300u);
}

}  // namespace
