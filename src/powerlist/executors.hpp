// Executors for PowerFunctions: sequential, fork-join, and simulated.
//
// JPLF's key design point (Section III) is that execution is managed
// separately from function definition; these executors all consume the
// same PowerFunction interface:
//   execute_sequential — plain depth-first recursion;
//   execute_forkjoin   — both halves through ForkJoinPool::invoke_two;
//   execute_simulated  — depth-first recursion that additionally records
//                        the fork-join task tree with the function's
//                        operation counts, then schedules it on P virtual
//                        processors (the stand-in for the paper's 8-core
//                        testbed; see DESIGN.md, Substitutions).
// A fourth executor runs over the message-passing simulation
// (src/mpisim/power_executor.hpp).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
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

template <typename T, typename R, typename Ctx>
R run_sequential(const PowerFunction<T, R, Ctx>& f,
                 PowerListView<const T> input, const Ctx& ctx,
                 std::size_t leaf_size) {
  if (input.length() <= leaf_size) return f.basic_case(input, ctx);
  const auto [left_view, right_view] = input.split(f.decomposition());
  auto [left_ctx, right_ctx] = f.descend(ctx, input.length());
  R left = run_sequential(f, left_view, left_ctx, leaf_size);
  R right = run_sequential(f, right_view, right_ctx, leaf_size);
  return f.combine(std::move(left), std::move(right), ctx, input.length());
}

template <typename T, typename R, typename Ctx>
R run_forkjoin(forkjoin::ForkJoinPool& pool, const PowerFunction<T, R, Ctx>& f,
               PowerListView<const T> input, const Ctx& ctx,
               std::size_t leaf_size, unsigned depth = 0,
               observe::CpNode* cp = nullptr) {
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
  pool.invoke_two(
      [&, cl = cl] {
        left.emplace(run_forkjoin(pool, f, left_view, left_ctx, leaf_size,
                                  depth + 1, cl));
      },
      [&, cr = cr] {
        right.emplace(run_forkjoin(pool, f, right_view, right_ctx, leaf_size,
                                   depth + 1, cr));
      });
  observe::Span span(observe::EventKind::kCombine, depth);
  observe::CpScope phase(cp, observe::CpPhase::kCombine);
  observe::LatencyTimer combine_timer(observe::Metric::kCombineRun);
  observe::local_counters().on_combine();
  return f.combine(std::move(*left), std::move(*right), ctx, input.length());
}

template <typename T, typename R, typename Ctx>
R run_traced(const PowerFunction<T, R, Ctx>& f, PowerListView<const T> input,
             const Ctx& ctx, std::size_t leaf_size,
             simmachine::TaskTrace& trace, simmachine::TaskTrace::NodeId& id) {
  if (input.length() <= leaf_size) {
    id = trace.add_leaf(f.leaf_cost_ops(input.length()));
    return f.basic_case(input, ctx);
  }
  const auto [left_view, right_view] = input.split(f.decomposition());
  auto [left_ctx, right_ctx] = f.descend(ctx, input.length());
  simmachine::TaskTrace::NodeId left_id = 0;
  simmachine::TaskTrace::NodeId right_id = 0;
  R left = run_traced(f, left_view, left_ctx, leaf_size, trace, left_id);
  R right = run_traced(f, right_view, right_ctx, leaf_size, trace, right_id);
  id = trace.add_fork(f.descend_cost_ops(input.length()),
                      f.combine_cost_ops(input.length()), left_id, right_id);
  return f.combine(std::move(left), std::move(right), ctx, input.length());
}

inline std::size_t checked_leaf_size(std::size_t leaf_size) {
  PLS_CHECK(leaf_size >= 1, "leaf size must be >= 1");
  return leaf_size;
}

template <typename T, typename U, typename Ctx>
void run_sequential_into(const InplacePowerFunction<T, U, Ctx>& f,
                         PowerListView<const T> input, PowerListView<U> out,
                         const Ctx& ctx, std::size_t leaf_size) {
  if (input.length() <= leaf_size) {
    f.basic_case_into(input, out, ctx);
    return;
  }
  const auto [left_in, right_in] = input.split(f.decomposition());
  const auto [left_out, right_out] = out.split(f.decomposition());
  auto [left_ctx, right_ctx] = f.descend(ctx, input.length());
  run_sequential_into(f, left_in, left_out, left_ctx, leaf_size);
  run_sequential_into(f, right_in, right_out, right_ctx, leaf_size);
}

template <typename T, typename U, typename Ctx>
void run_forkjoin_into(forkjoin::ForkJoinPool& pool,
                       const InplacePowerFunction<T, U, Ctx>& f,
                       PowerListView<const T> input, PowerListView<U> out,
                       const Ctx& ctx, std::size_t leaf_size,
                       unsigned depth = 0, observe::CpNode* cp = nullptr) {
  if (input.length() <= leaf_size) {
    observe::Span span(observe::EventKind::kAccumulate, input.length());
    observe::CpScope phase(cp, observe::CpPhase::kAccumulate);
    observe::LatencyTimer leaf_timer(observe::Metric::kLeafRun);
    observe::cp_add_elements(cp, input.length());
    observe::local_counters().on_leaf(input.length());
    f.basic_case_into(input, out, ctx);
    return;
  }
  const std::uint64_t split_start = cp != nullptr ? observe::now_ticks() : 0;
  const auto [left_in, right_in] = input.split(f.decomposition());
  const auto [left_out, right_out] = out.split(f.decomposition());
  auto [left_ctx, right_ctx] = f.descend(ctx, input.length());
  if (cp != nullptr) {
    cp->add_time(observe::CpPhase::kSplit, observe::now_ticks() - split_start);
  }
  observe::local_counters().on_split(depth);
  const auto [cl, cr] = observe::cp_fork(cp);
  pool.invoke_two(
      [&, cl = cl] {
        run_forkjoin_into(pool, f, left_in, left_out, left_ctx, leaf_size,
                          depth + 1, cl);
      },
      [&, cr = cr] {
        run_forkjoin_into(pool, f, right_in, right_out, right_ctx, leaf_size,
                          depth + 1, cr);
      });
  // No combine phase: both halves wrote disjoint windows of `out`.
}

}  // namespace detail

/// Depth-first sequential execution. The view parameter is deduced from
/// either a mutable or a const view (TV may be const-qualified).
template <typename TV, typename R, typename Ctx>
R execute_sequential(
    const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
    PowerListView<TV> input, Ctx ctx = Ctx{}, std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  return detail::run_sequential(
      f, PowerListView<const std::remove_const_t<TV>>(input), ctx,
      leaf_size);
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
  return pool.run([&] {
    return detail::run_forkjoin(pool, f, view, ctx, leaf_size, 0, cp);
  });
}

/// Depth-first sequential destination-passing execution: split input and
/// destination together, let every leaf write its final window. `out`
/// must be similar to `input` and not alias it.
template <typename TV, typename U, typename Ctx>
void execute_sequential_into(
    const InplacePowerFunction<std::remove_const_t<TV>, U, Ctx>& f,
    PowerListView<TV> input, PowerListView<U> out, Ctx ctx = Ctx{},
    std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  PLS_CHECK(input.similar(out),
            "destination must be similar to the input PowerList");
  detail::run_sequential_into(
      f, PowerListView<const std::remove_const_t<TV>>(input), out, ctx,
      leaf_size);
}

/// Parallel destination-passing execution on a fork-join pool: the
/// executor-side analogue of the sized-sink collect — leaves write
/// concurrently into disjoint windows of `out`, and there is no combine
/// phase at all. `out` must be similar to `input` and not alias it.
template <typename TV, typename U, typename Ctx>
void execute_forkjoin_into(
    forkjoin::ForkJoinPool& pool,
    const InplacePowerFunction<std::remove_const_t<TV>, U, Ctx>& f,
    PowerListView<TV> input, PowerListView<U> out, Ctx ctx = Ctx{},
    std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  PLS_CHECK(input.similar(out),
            "destination must be similar to the input PowerList");
  PowerListView<const std::remove_const_t<TV>> view(input);
  observe::CpNode* cp = observe::cp_new_root();
  pool.run([&] {
    detail::run_forkjoin_into(pool, f, view, out, ctx, leaf_size, 0, cp);
  });
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

/// Unified result of any reporting executor — the single type the
/// instrumented, simulated, and fork-join-reported paths all return
/// (previously three ad-hoc structs: InstrumentedExecution,
/// SimulatedExecution, and bare ExecutionStats). Fields not produced by a
/// given path stay default-initialised:
///   execute_instrumented       fills result + stats;
///   execute_simulated          fills result + stats + sim (simulated=true);
///   execute_forkjoin_reported  fills result + stats + counters;
///   execute_forkjoin_profiled  additionally fills profile + wall_ns +
///                              histograms (critical-path run).
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

template <typename T, typename R, typename Ctx>
R run_instrumented(const PowerFunction<T, R, Ctx>& f,
                   PowerListView<const T> input, const Ctx& ctx,
                   std::size_t leaf_size, unsigned depth,
                   ExecutionStats& stats) {
  stats.max_depth = std::max(stats.max_depth, depth);
  if (input.length() <= leaf_size) {
    ++stats.basic_cases;
    if (stats.min_leaf_length == 0 ||
        input.length() < stats.min_leaf_length) {
      stats.min_leaf_length = input.length();
    }
    stats.max_leaf_length = std::max(stats.max_leaf_length, input.length());
    return f.basic_case(input, ctx);
  }
  ++stats.descends;
  const auto [left_view, right_view] = input.split(f.decomposition());
  auto [left_ctx, right_ctx] = f.descend(ctx, input.length());
  R left = run_instrumented(f, left_view, left_ctx, leaf_size, depth + 1,
                            stats);
  R right = run_instrumented(f, right_view, right_ctx, leaf_size, depth + 1,
                             stats);
  ++stats.combines;
  return f.combine(std::move(left), std::move(right), ctx, input.length());
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

/// Sequential execution that additionally reports how the recursion
/// unfolded — the observable counterpart of the paper's remark that "we
/// don't have control over the level at which parallel decomposition
/// stops" (here we do, and the stats prove where it stopped).
template <typename TV, typename R, typename Ctx>
ExecutionReport<R> execute_instrumented(
    const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
    PowerListView<TV> input, Ctx ctx = Ctx{}, std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  ExecutionStats stats;
  R result = detail::run_instrumented(
      f, PowerListView<const std::remove_const_t<TV>>(input), ctx,
      leaf_size, 0, stats);
  ExecutionReport<R> report{std::move(result)};
  report.stats = stats;
  return report;
}

/// Execute sequentially while recording the task tree, then schedule it on
/// the simulator's virtual processors. The report carries both the
/// decomposition shape and the simulated schedule.
template <typename TV, typename R, typename Ctx>
ExecutionReport<R> execute_simulated(
    const simmachine::Simulator& sim,
    const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
    PowerListView<TV> input, Ctx ctx = Ctx{}, std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  simmachine::TaskTrace trace;
  simmachine::TaskTrace::NodeId root = 0;
  R result = detail::run_traced(
      f, PowerListView<const std::remove_const_t<TV>>(input), ctx, leaf_size,
      trace, root);
  trace.set_root(root);
  ExecutionReport<R> report{std::move(result)};
  report.stats = detail::uniform_shape(input.length(), leaf_size);
  report.sim = sim.run(trace);
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

/// Parallel execution with full critical-path profiling: clears and
/// enables the global CriticalPathRecorder for the duration of the run,
/// then reports measured work T1, span T∞, per-phase attribution, the
/// run's wall time, and the aggregated latency histograms alongside the
/// counter delta. The recorder is process-global, so profile exactly one
/// run at a time; report.profile is all zeros when PLS_OBSERVE=0.
template <typename TV, typename R, typename Ctx>
ExecutionReport<R> execute_forkjoin_profiled(
    forkjoin::ForkJoinPool& pool,
    const PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
    PowerListView<TV> input, Ctx ctx = Ctx{}, std::size_t leaf_size = 1) {
  detail::checked_leaf_size(leaf_size);
  const streams::ExecutionPlan plan =
      detail::synthesized_plan(input.length(), leaf_size, pool);
  streams::record_plan(plan);
  auto& recorder = observe::CriticalPathRecorder::global();
  recorder.clear();
  recorder.enable();
  const observe::CounterTotals before = pool.counter_totals();
  const auto wall0 = std::chrono::steady_clock::now();
  std::optional<R> result;
  {
    streams::RunScope run_scope(plan);
    result.emplace(execute_forkjoin(pool, f, input, ctx, leaf_size));
  }
  const auto wall1 = std::chrono::steady_clock::now();
  recorder.disable();
  ExecutionReport<R> report{std::move(*result)};
  report.stats = detail::uniform_shape(input.length(), leaf_size);
  report.counters = pool.counter_totals() - before;
  report.profile = recorder.analyze();
  report.histograms = observe::aggregate_histograms();
  report.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 - wall0)
          .count());
  report.plan = plan;
  return report;
}

}  // namespace pls::powerlist
