// Executors for PowerFunctions: sequential, fork-join, and simulated.
//
// JPLF's key design point (Section III) is that execution is managed
// separately from function definition; these executors all consume the
// same PowerFunction interface and run it on the one split-tree walk,
// streams::split_walk (streams/plan.hpp), which the streams evaluator,
// the PList skeleton and the JPLF layer share:
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

#include <array>
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

/// One node of a PowerFunction walk: a view and its descended context.
template <typename T, typename Ctx>
struct PowerNode {
  PowerListView<const T> view;
  Ctx ctx;
};

/// `f`'s hooks on streams::split_walk: a node above `leaf_size` splits
/// with the function's decomposition operator and descends its context;
/// leaves run basic_case and halves recombine with combine, both observed
/// (streams::observed_leaf / observed_combine). With `pool == nullptr`
/// both halves run inline, left first.
template <typename T, typename R, typename Ctx>
R walk(forkjoin::ForkJoinPool* pool, const PowerFunction<T, R, Ctx>& f,
       PowerListView<const T> input, const Ctx& ctx, std::size_t leaf_size,
       observe::CpNode* cp) {
  using Node = PowerNode<T, Ctx>;
  return streams::split_walk(
      pool, Node{input, ctx}, 0, cp,
      [&](const Node& node) -> std::optional<std::array<Node, 2>> {
        if (node.view.length() <= leaf_size) return std::nullopt;
        const auto [l, r] = node.view.split(f.decomposition());
        auto [lc, rc] = f.descend(node.ctx, node.view.length());
        return std::array<Node, 2>{Node{l, std::move(lc)},
                                   Node{r, std::move(rc)}};
      },
      [&](const Node& node, observe::CpNode* at) {
        return streams::observed_leaf(node.view.length(), at, [&] {
          return f.basic_case(node.view, node.ctx);
        });
      },
      [&](const Node& node, auto& halves, unsigned depth,
          observe::CpNode* at) {
        return streams::observed_combine(depth, at, [&] {
          return f.combine(std::move(halves[0]), std::move(halves[1]),
                           node.ctx, node.view.length());
        });
      });
}

}  // namespace detail

/// Depth-first sequential execution. The view parameter is deduced from
/// either a mutable or a const view (TV may be const-qualified).
template <typename TV, typename R, typename Ctx>
R execute_sequential(
    const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
    PowerListView<TV> input, Ctx ctx = Ctx{}, std::size_t leaf_size = 1) {
  PLS_CHECK(leaf_size >= 1, "leaf size must be >= 1");
  return detail::walk(nullptr, f,
                      PowerListView<const std::remove_const_t<TV>>(input),
                      ctx, leaf_size, nullptr);
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
  PLS_CHECK(leaf_size >= 1, "leaf size must be >= 1");
  PowerListView<const std::remove_const_t<TV>> view(input);
  return streams::run_synthesized(
      input.length(), leaf_size, pool.parallelism(), 2, [&] {
        observe::CpNode* cp = observe::cp_new_root();
        return pool.run(
            [&] { return detail::walk(&pool, f, view, ctx, leaf_size, cp); });
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
