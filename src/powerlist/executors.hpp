// Executors for PowerFunctions: sequential, fork-join, and simulated.
//
// JPLF's key design point (Section III) is that execution is managed
// separately from function definition; these executors all consume the
// same PowerFunction interface and run the same split-tree walk,
// detail::run:
//   execute_sequential — the walk with both halves inline, depth first;
//   execute_forkjoin   — the walk with both halves through
//                        ForkJoinPool::invoke_two;
//   execute_simulated  — the sequential walk for the result, plus the
//                        fork-join task tree priced with the function's
//                        operation counts, scheduled on P virtual
//                        processors (the stand-in for the paper's 8-core
//                        testbed; see DESIGN.md, Substitutions).
// Every fork-join run records its synthesized plan and appends exactly one
// RunRecord (counter delta, wall time, plan identity; read it through
// pls::session::runs() or observe::RunRegistry). Halving is uniform, so
// the decomposition shape (decomposition_shape) and the simulator's task
// tree follow in closed form from (length, leaf_size); neither needs a
// walk of its own. A fourth executor runs over the message-passing
// simulation (src/mpisim/power_executor.hpp).
#pragma once

#include <cstddef>
#include <optional>
#include <type_traits>
#include <utility>

#include "forkjoin/pool.hpp"
#include "observe/counters.hpp"
#include "observe/critical_path.hpp"
#include "powerlist/function.hpp"
#include "powerlist/view.hpp"
#include "simmachine/scheduler.hpp"
#include "simmachine/trace.hpp"
#include "streams/plan.hpp"
#include "support/assert.hpp"

namespace pls::powerlist {

namespace detail {

/// The split-tree walk. With `pool == nullptr` both halves run inline,
/// left first; otherwise they run through `pool->invoke_two`. Spans,
/// latency timers, counters and critical-path phases are recorded on both
/// paths (streams::observed_leaf / observed_combine; `cp == nullptr`
/// disables the phases).
template <typename T, typename R, typename Ctx>
R run(forkjoin::ForkJoinPool* pool, const PowerFunction<T, R, Ctx>& f,
      PowerListView<const T> input, const Ctx& ctx, std::size_t leaf_size,
      unsigned depth, observe::CpNode* cp) {
  if (input.length() <= leaf_size) {
    return streams::observed_leaf(input.length(), cp,
                                  [&] { return f.basic_case(input, ctx); });
  }
  const std::uint64_t split_start = cp != nullptr ? observe::now_ticks() : 0;
  const auto [left_view, right_view] = input.split(f.decomposition());
  auto [left_ctx, right_ctx] = f.descend(ctx, input.length());
  if (cp != nullptr) {
    cp->add_time(observe::CpPhase::kSplit, observe::now_ticks() - split_start);
  }
  observe::local_counters().on_split(depth);
  const auto [cl, cr] = observe::cp_fork(cp);
  std::optional<R> left;
  std::optional<R> right;
  auto run_left = [&, cl = cl] {
    left.emplace(run(pool, f, left_view, left_ctx, leaf_size, depth + 1, cl));
  };
  auto run_right = [&, cr = cr] {
    right.emplace(
        run(pool, f, right_view, right_ctx, leaf_size, depth + 1, cr));
  };
  if (pool != nullptr) {
    pool->invoke_two(run_left, run_right);
  } else {
    run_left();
    run_right();
  }
  return streams::observed_combine(depth, cp, [&] {
    return f.combine(std::move(*left), std::move(*right), ctx,
                     input.length());
  });
}

inline std::size_t checked_leaf_size(std::size_t leaf_size) {
  PLS_CHECK(leaf_size >= 1, "leaf size must be >= 1");
  return leaf_size;
}

}  // namespace detail

/// Depth-first sequential execution. The view parameter is deduced from
/// either a mutable or a const view (TV may be const-qualified).
template <typename TV, typename R, typename Ctx>
R execute_sequential(
    const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
    PowerListView<TV> input, Ctx ctx = Ctx{}, std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  return detail::run(nullptr, f,
                     PowerListView<const std::remove_const_t<TV>>(input), ctx,
                     leaf_size, 0, nullptr);
}

/// Parallel execution on a fork-join pool. The function's hooks run
/// concurrently; they are const and must be thread-safe. The run records
/// its synthesized plan (streams::last_plan()) and appends one RunRecord,
/// also when it throws.
template <typename TV, typename R, typename Ctx>
R execute_forkjoin(forkjoin::ForkJoinPool& pool,
                   const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
                   PowerListView<TV> input, Ctx ctx = Ctx{},
                   std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  PowerListView<const std::remove_const_t<TV>> view(input);
  return streams::run_synthesized(
      input.length(), leaf_size, pool.parallelism(), 2, [&] {
        observe::CpNode* cp = observe::cp_new_root();
        return pool.run([&] {
          return detail::run(&pool, f, view, ctx, leaf_size, 0, cp);
        });
      });
}

/// Structural statistics of one execution: how the skeleton decomposed
/// the input.
struct ExecutionStats {
  std::size_t basic_cases = 0;   ///< leaf-phase invocations
  std::size_t combines = 0;      ///< ascending-phase invocations
  std::size_t descends = 0;      ///< splitting-phase invocations
  unsigned max_depth = 0;        ///< deepest recursion level reached
  std::size_t min_leaf_length = 0;
  std::size_t max_leaf_length = 0;
};

/// Closed-form decomposition shape of a run over `length` elements with
/// `leaf_size`: both decomposition operators halve, so the tree is uniform
/// and fully determined by the two numbers. Any executor's run over the
/// same input decomposes exactly like this.
inline ExecutionStats decomposition_shape(std::size_t length,
                                          std::size_t leaf_size) {
  ExecutionStats s;
  unsigned depth = 0;
  std::size_t len = length;
  while (len > leaf_size && len % 2 == 0) {
    len /= 2;
    ++depth;
  }
  const std::size_t leaves = std::size_t{1} << depth;
  s.basic_cases = leaves;
  s.descends = leaves - 1;
  s.combines = leaves - 1;
  s.max_depth = depth;
  s.min_leaf_length = len;
  s.max_leaf_length = len;
  return s;
}

/// Result of execute_simulated: the computed value and its simulated
/// schedule.
template <typename R>
struct SimulatedRun {
  R result;
  simmachine::SimResult sim{};
};

/// Execute sequentially for the result, then schedule the function's task
/// tree on the simulator's virtual processors. The tree is built in closed
/// form — uniform halving, nodes in the walk's post-order — and priced with
/// the function's cost hooks.
template <typename TV, typename R, typename Ctx>
SimulatedRun<R> execute_simulated(
    const simmachine::Simulator& sim,
    const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
    PowerListView<TV> input, Ctx ctx = Ctx{}, std::size_t leaf_size = 1) {
  SimulatedRun<R> out{execute_sequential(f, input, ctx, leaf_size)};
  out.sim = sim.run(simmachine::TaskTrace::balanced(
      decomposition_shape(input.length(), leaf_size).max_depth,
      input.length(), [&](std::size_t len) { return f.leaf_cost_ops(len); },
      [&](std::size_t len) { return f.descend_cost_ops(len); },
      [&](std::size_t len) { return f.combine_cost_ops(len); }));
  return out;
}

}  // namespace pls::powerlist
