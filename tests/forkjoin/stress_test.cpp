// Stress tests: irregular task trees, concurrent external submitters,
// and pool lifecycle churn — the failure modes a work-stealing runtime
// actually faces.
//
// Every potentially-blocking step runs under a deadline: a wedged pool
// dumps its counters (steals, failures, per-worker execution breakdown)
// and aborts instead of hanging CI with a bare join. The deadlines are
// generous — minutes, not the expected milliseconds — so they only fire
// on a genuine deadlock or livelock.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "forkjoin/pool.hpp"
#include "observe/counters.hpp"
#include "support/rng.hpp"

namespace {

using pls::forkjoin::ForkJoinPool;

constexpr std::chrono::seconds kDeadline{120};

/// Print everything the pool knows about itself: the post-mortem for a
/// deadline overrun, in place of a silent hang. `pool` may be null when
/// the pool itself lives inside the timed closure (lifecycle tests).
void dump_pool_diagnostics(const ForkJoinPool* pool, const char* where) {
  std::fprintf(stderr, "[stress] deadline exceeded in %s\n", where);
  if (pool == nullptr) {
    std::fprintf(stderr,
                 "[stress]   (pool owned by the timed closure; "
                 "no counters reachable)\n");
    std::fflush(stderr);
    return;
  }
  std::fprintf(stderr,
               "[stress]   parallelism=%u steals=%llu steal_failures=%llu\n",
               pool->parallelism(),
               static_cast<unsigned long long>(pool->steal_count()),
               static_cast<unsigned long long>(pool->steal_failure_count()));
  if (pls::observe::kEnabled) {
    const auto workers = pool->per_worker_counters();
    for (std::size_t i = 0; i < workers.size(); ++i) {
      const auto& w = workers[i];
      std::fprintf(
          stderr,
          "[stress]   worker %zu: tasks=%llu forks=%llu steals=%llu "
          "steal_failures=%llu\n",
          i, static_cast<unsigned long long>(w.tasks_executed),
          static_cast<unsigned long long>(w.forks),
          static_cast<unsigned long long>(w.steals),
          static_cast<unsigned long long>(w.steal_failures));
    }
  } else {
    std::fprintf(stderr,
                 "[stress]   (per-worker counters compiled out)\n");
  }
  std::fflush(stderr);
}

/// Run `fn` off-thread and wait at most kDeadline. On timeout the pool is
/// presumed wedged: dump diagnostics and abort — the stuck helper thread
/// would block a clean test-process exit anyway, and an abort with a
/// post-mortem beats a CI timeout with no output.
template <typename Fn>
auto with_deadline(const ForkJoinPool* pool, const char* where, Fn fn)
    -> decltype(fn()) {
  auto task = std::async(std::launch::async, std::move(fn));
  if (task.wait_for(kDeadline) == std::future_status::timeout) {
    dump_pool_diagnostics(pool, where);
    std::abort();
  }
  return task.get();
}

// Irregular recursion: split points chosen pseudo-randomly per node, so
// the tree is deeply unbalanced — the worst case for naive scheduling.
long irregular_sum(ForkJoinPool& pool, std::uint64_t seed, long lo,
                   long hi) {
  if (hi - lo <= 8) {
    long s = 0;
    for (long i = lo; i < hi; ++i) s += i;
    return s;
  }
  pls::SplitMix64 rng(seed ^ static_cast<std::uint64_t>(lo * 31 + hi));
  // Split anywhere in the middle 80% of the range.
  const long span = hi - lo;
  const long offset =
      span / 10 + static_cast<long>(rng.next() % std::max<long>(
                                                     1, span * 8 / 10));
  const long mid = lo + std::max<long>(1, std::min(span - 1, offset));
  long left = 0, right = 0;
  pool.invoke_two(
      [&] { left = irregular_sum(pool, seed * 3, lo, mid); },
      [&] { right = irregular_sum(pool, seed * 5, mid, hi); });
  return left + right;
}

TEST(Stress, IrregularTreeSumsCorrectly) {
  ForkJoinPool pool(4);
  const long n = 200000;
  const long got = with_deadline(&pool, "IrregularTreeSumsCorrectly", [&] {
    return pool.run([&] { return irregular_sum(pool, 42, 0, n); });
  });
  EXPECT_EQ(got, n * (n - 1) / 2);
}

TEST(Stress, ManyExternalSubmitters) {
  // 6 OS threads hammer the same 3-worker pool concurrently.
  ForkJoinPool pool(3);
  constexpr int kThreads = 6;
  constexpr int kJobsPerThread = 40;
  std::atomic<long> total{0};
  const long got = with_deadline(&pool, "ManyExternalSubmitters", [&] {
    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (int j = 0; j < kJobsPerThread; ++j) {
          const long v = pool.run([&, t, j] {
            // The two branches run concurrently: each needs its own
            // accumulator; invoke_two's join publishes both for the sum.
            long acc_left = 0, acc_right = 0;
            pool.invoke_two(
                [&] {
                  for (int i = 0; i < 100; ++i) acc_left += t;
                },
                [&] {
                  for (int i = 0; i < 100; ++i) acc_right += j;
                });
            return acc_left + acc_right;
          });
          total.fetch_add(v, std::memory_order_relaxed);
        }
      });
    }
    for (auto& s : submitters) s.join();
    return total.load();
  });
  long expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int j = 0; j < kJobsPerThread; ++j) expected += 100 * (t + j);
  }
  EXPECT_EQ(got, expected);
}

TEST(Stress, PoolChurn) {
  // Construct/destroy pools rapidly with real work in between: checks
  // clean shutdown with no leaked or wedged workers. The deadline covers
  // construction and destruction too — a worker that never parks would
  // wedge the destructor, not run().
  for (int round = 0; round < 25; ++round) {
    const int v =
        with_deadline(nullptr, "PoolChurn", [&] {
          ForkJoinPool pool(1 + round % 4);
          return pool.run([&] {
            int a = 0, b = 0;
            pool.invoke_two([&] { a = round; }, [&] { b = round * 2; });
            return a + b;
          });
        });
    EXPECT_EQ(v, round * 3);
  }
}

TEST(Stress, DeepNarrowRecursion) {
  // A right-leaning chain: the left closure returns immediately, the
  // right recurses. Exercises join-helping along a long spine; depth is
  // kept within default thread-stack budgets (the recursion is linear).
  ForkJoinPool pool(2);
  struct Chain {
    ForkJoinPool& pool;
    long walk(long remaining) {
      if (remaining == 0) return 0;
      long tail = 0;
      pool.invoke_two([] {}, [&] { tail = walk(remaining - 1); });
      return tail + 1;
    }
  } chain{pool};
  const long depth = 4000;
  const long got = with_deadline(&pool, "DeepNarrowRecursion", [&] {
    return pool.run([&] { return chain.walk(depth); });
  });
  EXPECT_EQ(got, depth);
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

TEST(Stress, CounterAggregationUnderStress) {
  // Per-worker counter blocks stay consistent while an irregular tree and
  // external submitters churn the pool: every fork is matched by a task
  // execution, and the per-worker breakdown sums to the aggregate.
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  ForkJoinPool pool(4);
  const auto before = pool.counter_totals();
  const long n = 100000;
  const long got =
      with_deadline(&pool, "CounterAggregationUnderStress", [&] {
        return pool.run([&] { return irregular_sum(pool, 7, 0, n); });
      });
  EXPECT_EQ(got, n * (n - 1) / 2);
  const auto delta = pool.counter_totals() - before;
  EXPECT_GT(delta.forks, 0u);
  // Each fork pushes exactly one deque task; each is executed exactly once
  // (locally popped, stolen, or join-helped). The +1 is the submitted root.
  EXPECT_EQ(delta.tasks_executed, delta.forks + 1);
  // Steal bookkeeping stays consistent with the pool-level atomics.
  EXPECT_EQ(delta.steals + before.steals, pool.steal_count());
  EXPECT_TRUE(steal_failures_agree(pool));
  // Per-worker breakdown re-sums to the aggregate.
  pls::observe::CounterTotals resummed;
  for (const auto& w : pool.per_worker_counters()) resummed += w;
  EXPECT_EQ(resummed.tasks_executed, pool.counter_totals().tasks_executed);
  EXPECT_EQ(resummed.steals, pool.counter_totals().steals);
  EXPECT_EQ(resummed.forks, pool.counter_totals().forks);
}

TEST(Stress, RepeatedLargeParallelRuns) {
  ForkJoinPool pool(4);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> leaves{0};
    with_deadline(&pool, "RepeatedLargeParallelRuns", [&] {
      pool.run([&] {
        struct Rec {
          ForkJoinPool& pool;
          std::atomic<int>& leaves;
          void go(int depth) {
            if (depth == 0) {
              leaves.fetch_add(1, std::memory_order_relaxed);
              return;
            }
            pool.invoke_two([&] { go(depth - 1); }, [&] { go(depth - 1); });
          }
        } rec{pool, leaves};
        rec.go(10);
      });
    });
    EXPECT_EQ(leaves.load(), 1024);
  }
}

}  // namespace
