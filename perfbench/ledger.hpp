// Fork-join ledger helpers shared by the workloads that cross forkjoin
// (horner-zip and dc-skeletons): pool counter deltas attached to a span,
// and the empty invoke_two tree that is the scheduling floor of a split
// tree with the same leaf count.
#pragma once

#include <bit>
#include <cstdint>

#include "forkjoin/pool.hpp"
#include "harness.hpp"

namespace perfbench {

// Snapshot of the pool's executed-task and steal counters; attach() puts
// the deltas since construction on a span as (a = tasks, b = steals).
class PoolMark {
 public:
  PoolMark(pls::forkjoin::ForkJoinPool& pool, bool active) : pool_(pool) {
    if (active) {
      tasks_ = pool.counter_totals().tasks_executed;
      steals_ = pool.steal_count();
    }
  }
  void attach(Scope& s) const {
    s.counts(static_cast<double>(pool_.counter_totals().tasks_executed - tasks_),
             static_cast<double>(pool_.steal_count() - steals_));
  }

 private:
  pls::forkjoin::ForkJoinPool& pool_;
  std::uint64_t tasks_ = 0;
  std::uint64_t steals_ = 0;
};

inline void empty_tree_rec(pls::forkjoin::ForkJoinPool& pool, unsigned depth) {
  if (depth == 0) return;
  pool.invoke_two([&] { empty_tree_rec(pool, depth - 1); },
                  [&] { empty_tree_rec(pool, depth - 1); });
}

// A balanced invoke_two tree of 2^depth empty leaves, run on the pool.
inline void empty_tree(pls::forkjoin::ForkJoinPool& pool, unsigned depth) {
  pool.run([&] { empty_tree_rec(pool, depth); });
}

// Depth of the balanced binary tree with `leaves` leaves (rounded up).
inline unsigned tree_depth(std::uint64_t leaves) {
  return leaves <= 1 ? 0u
                     : static_cast<unsigned>(std::bit_width(leaves - 1));
}

}  // namespace perfbench
