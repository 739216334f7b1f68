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
// Halving is uniform, so the decomposition shape and the simulator's task
// tree follow in closed form from (length, leaf_size); neither needs a
// walk of its own. A fourth executor runs over the message-passing
// simulation (src/mpisim/power_executor.hpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

#include "forkjoin/pool.hpp"
#include "observe/counters.hpp"
#include "observe/critical_path.hpp"
#include "observe/histogram.hpp"
#include "observe/trace.hpp"
#include "powerlist/function.hpp"
#include "powerlist/view.hpp"
#include "simmachine/scheduler.hpp"
#include "simmachine/trace.hpp"
#include "streams/plan.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace pls::powerlist {

namespace detail {

/// The split-tree walk. With `pool == nullptr` both halves run inline,
/// left first; otherwise they run through `pool->invoke_two`. Spans,
/// latency timers, counters and critical-path phases are recorded on both
/// paths (all inert under PLS_OBSERVE=0; `cp == nullptr` disables the
/// phases).
template <typename T, typename R, typename Ctx>
R run(forkjoin::ForkJoinPool* pool, const PowerFunction<T, R, Ctx>& f,
      PowerListView<const T> input, const Ctx& ctx, std::size_t leaf_size,
      unsigned depth, observe::CpNode* cp) {
  if (input.length() <= leaf_size) {
    observe::Span span(observe::EventKind::kAccumulate, input.length());
    observe::CpScope phase(cp, observe::CpPhase::kAccumulate);
    observe::LatencyTimer leaf_timer(observe::Metric::kLeafRun);
    observe::cp_add_elements(cp, input.length());
    observe::local_counters().on_leaf(input.length());
    return f.basic_case(input, ctx);
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
  observe::Span span(observe::EventKind::kCombine, depth);
  observe::CpScope phase(cp, observe::CpPhase::kCombine);
  observe::LatencyTimer combine_timer(observe::Metric::kCombineRun);
  observe::local_counters().on_combine();
  return f.combine(std::move(*left), std::move(*right), ctx, input.length());
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
/// concurrently; they are const and must be thread-safe.
template <typename TV, typename R, typename Ctx>
R execute_forkjoin(forkjoin::ForkJoinPool& pool,
                   const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
                   PowerListView<TV> input, Ctx ctx = Ctx{},
                   std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  PowerListView<const std::remove_const_t<TV>> view(input);
  observe::CpNode* cp = observe::cp_new_root();
  return pool.run(
      [&] { return detail::run(&pool, f, view, ctx, leaf_size, 0, cp); });
}

/// Structural statistics of one execution: how the skeleton actually
/// decomposed the input.
struct ExecutionStats {
  std::size_t basic_cases = 0;   ///< leaf-phase invocations
  std::size_t combines = 0;      ///< ascending-phase invocations
  std::size_t descends = 0;      ///< splitting-phase invocations
  unsigned max_depth = 0;        ///< deepest recursion level reached
  std::size_t min_leaf_length = 0;
  std::size_t max_leaf_length = 0;
};

/// Result of any reporting executor. Fields a path does not produce stay
/// default-initialised:
///   execute_simulated          fills result + stats + sim (simulated=true);
///   execute_forkjoin_reported  fills result + stats + counters + plan;
///   execute_forkjoin_profiled  additionally fills profile + wall_ns +
///                              histograms (critical-path run).
/// `stats` is always the closed-form shape (detail::uniform_shape).
template <typename R>
struct ExecutionReport {
  R result;
  ExecutionStats stats{};
  simmachine::SimResult sim{};        ///< meaningful when `simulated`
  bool simulated = false;
  observe::CounterTotals counters{};  ///< pool-worker delta for the run
  observe::CriticalPathStats profile{};  ///< measured T1/T∞ (profiled runs)
  observe::HistogramSetSnapshot histograms{};  ///< latency histograms
  double wall_ns = 0.0;  ///< wall-clock time of the profiled run
  streams::ExecutionPlan plan{};  ///< how the run was routed (reported runs)

  /// Human-readable profile: work/span/parallelism header plus the
  /// per-phase (split / accumulate / combine / steal-idle) attribution
  /// table. Empty string when the run was not profiled.
  std::string profile_summary(unsigned workers = 0) const {
    if (profile.empty()) return {};
    std::ostringstream os;
    os << "work T1 = " << profile.work_ns / 1e6 << " ms, span Tinf = "
       << profile.span_ns / 1e6 << " ms, parallelism T1/Tinf = "
       << profile.parallelism();
    if (workers > 0) {
      os << ", Brent bound T" << workers << " <= "
         << profile.brent_bound_ns(workers) / 1e6 << " ms";
    }
    os << '\n' << profile.phase_table(wall_ns, workers);
    return os.str();
  }
};

namespace detail {

/// Closed-form decomposition shape of a power-of-two recursion: both
/// decomposition operators halve, so the tree is uniform and fully
/// determined by (length, leaf_size) — no need to instrument the parallel
/// recursion to know how it unfolded.
inline ExecutionStats uniform_shape(std::size_t length,
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

/// Plan describing a PowerList fork-join run in the planner's vocabulary
/// (origin kSynthesized): the divide-and-conquer drive is fixed by the
/// executor, so the DPS verdict reads kNotAStreamPipeline and the grain
/// is the caller's leaf_size. Recorded via streams::record_plan so
/// pls::session::explain() covers PowerList runs too.
inline streams::ExecutionPlan synthesized_plan(std::size_t length,
                                               std::size_t leaf_size,
                                               const forkjoin::ForkJoinPool&
                                                   pool) {
  streams::ExecutionPlan p;
  p.origin = streams::PlanOrigin::kSynthesized;
  p.terminal = streams::TerminalKind::kPowerFunction;
  p.parallel = true;
  p.parallelism = pool.parallelism();
  p.source_size = length;
  p.sized = true;
  p.subsized = true;
  p.windowed = false;
  p.power_of_two = is_power_of_two(static_cast<std::uint64_t>(length));
  p.stages = 0;
  p.one_to_one = true;
  p.cancels = false;
  p.dps = false;
  p.dps_reason = streams::PlanReason::kNotAStreamPipeline;
  p.drive = streams::DriveMode::kForkJoinTree;
  p.grain = leaf_size;
  p.grain_source = streams::GrainSource::kExplicit;
  p.kernel = streams::KernelMode::kScalarLoop;
  p.cache_key = streams::plan_cache_key(
      streams::TerminalKind::kPowerFunction, length, p.parallelism, 0, true,
      false);
  return p;
}

}  // namespace detail

/// Execute sequentially for the result, then schedule the function's task
/// tree on the simulator's virtual processors. The tree is built in closed
/// form — uniform halving, nodes in the walk's post-order — and priced with
/// the function's cost hooks. The report carries both the decomposition
/// shape and the simulated schedule.
template <typename TV, typename R, typename Ctx>
ExecutionReport<R> execute_simulated(
    const simmachine::Simulator& sim,
    const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
    PowerListView<TV> input, Ctx ctx = Ctx{}, std::size_t leaf_size = 1) {
  ExecutionReport<R> report{execute_sequential(f, input, ctx, leaf_size)};
  report.stats = detail::uniform_shape(input.length(), leaf_size);
  report.sim = sim.run(simmachine::TaskTrace::balanced(
      report.stats.max_depth, input.length(),
      [&](std::size_t len) { return f.leaf_cost_ops(len); },
      [&](std::size_t len) { return f.descend_cost_ops(len); },
      [&](std::size_t len) { return f.combine_cost_ops(len); }));
  report.simulated = true;
  return report;
}

/// Parallel execution on a fork-join pool that additionally reports the
/// decomposition shape (closed form — the halving recursion is uniform)
/// and the pool's observability-counter delta for the run (zeros when
/// PLS_OBSERVE=0). The delta is pool-wide: concurrent unrelated work on
/// the same pool is attributed to this report.
template <typename TV, typename R, typename Ctx>
ExecutionReport<R> execute_forkjoin_reported(
    forkjoin::ForkJoinPool& pool,
    const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
    PowerListView<TV> input, Ctx ctx = Ctx{}, std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  // Plan before running so the run-record scope brackets the execution
  // (one RunRecord per executed terminal, PowerList runs included).
  const streams::ExecutionPlan plan =
      detail::synthesized_plan(input.length(), leaf_size, pool);
  streams::record_plan(plan);
  const observe::CounterTotals before = pool.counter_totals();
  std::optional<R> result;
  {
    streams::RunScope run_scope(plan);
    result.emplace(execute_forkjoin(pool, f, input, ctx, leaf_size));
  }
  ExecutionReport<R> report{std::move(*result)};
  report.stats = detail::uniform_shape(input.length(), leaf_size);
  report.counters = pool.counter_totals() - before;
  report.plan = plan;
  return report;
}

/// execute_forkjoin_reported with full critical-path profiling, then adds
/// measured work T1, span T∞, per-phase attribution, the run's wall time,
/// and the aggregated latency histograms to the report. report.profile
/// covers only the tree this run records. When the global
/// CriticalPathRecorder is off, it is cleared and enabled for the run and
/// disabled again even when the run throws; when it is already on (a
/// profiling pls::session), its earlier trees are kept and it stays on.
/// The recorder is process-global, so profile exactly one run at a time;
/// report.profile is all zeros when PLS_OBSERVE=0.
template <typename TV, typename R, typename Ctx>
ExecutionReport<R> execute_forkjoin_profiled(
    forkjoin::ForkJoinPool& pool,
    const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
    PowerListView<TV> input, Ctx ctx = Ctx{}, std::size_t leaf_size = 1) {
  auto& recorder = observe::CriticalPathRecorder::global();
  const bool owned = !recorder.enabled();
  if (owned) {
    recorder.clear();
    recorder.enable();
  }
  const auto disable = [](observe::CriticalPathRecorder* r) { r->disable(); };
  std::unique_ptr<observe::CriticalPathRecorder, decltype(disable)>
      disable_on_exit(owned ? &recorder : nullptr, disable);
  const observe::CpMark since = recorder.mark();
  const auto wall0 = std::chrono::steady_clock::now();
  ExecutionReport<R> report =
      execute_forkjoin_reported(pool, f, input, ctx, leaf_size);
  const auto wall1 = std::chrono::steady_clock::now();
  disable_on_exit.reset();
  report.profile = recorder.analyze(observe::ns_per_tick(), since);
  report.histograms = observe::aggregate_histograms();
  report.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 - wall0)
          .count());
  return report;
}

}  // namespace pls::powerlist
