// plstream — PowerList computation inside a Streams API.
//
// Umbrella header: pulls in the whole public API and defines the pls::
// facade (pls::config / pls::session / pls::run) — the single documented
// entry point that hands out pools, executors and observability from one
// configuration instead of having callers construct them ad hoc.
// Fine-grained headers remain available for build-time-conscious users.
//
// Module map (see DESIGN.md for the full inventory):
//   support/    bits, RNG, stopwatch, stats, function_ref, tables
//   observe/    per-worker counters + span tracing (PLS_OBSERVE switch)
//   forkjoin/   work-stealing ForkJoinPool, its invoke_two fork-join primitive
//   simmachine/ task-trace recorder + virtual-multicore scheduler
//   streams/    Spliterator, Stream, Collector, collectors, unsized
//   service/    long-lived push-mode sessions: ingest queues with
//               watermark flow control, reusable planned chains,
//               windowed terminals, the multiplexing driver
//   powerlist/  views, PowerArray, Tie/ZipSpliterators, PowerFunction,
//               executors, the algorithm library, the Streams adaptation
//               layer, PowerStream facade, JPLF-compatibility layer
//   plist/      n-way views, multiway spliterators, PList functions
//   mpisim/     message-passing simulation + distributed executors
#pragma once

#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/function_ref.hpp"
#include "support/rng.hpp"
#include "support/sized_buffer.hpp"
#include "support/stats.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

#include "forkjoin/pool.hpp"

#include "simmachine/costmodel.hpp"
#include "simmachine/scaling.hpp"
#include "simmachine/scheduler.hpp"
#include "simmachine/trace.hpp"

#include "streams/collector.hpp"
#include "streams/collectors.hpp"
#include "streams/sized_sink.hpp"
#include "streams/static_fusion.hpp"
#include "streams/stream.hpp"
#include "streams/unsized.hpp"
#include "support/simd.hpp"

#include "service/driver.hpp"
#include "service/facade.hpp"
#include "service/queue.hpp"
#include "service/session.hpp"

#include "powerlist/algorithms/adder.hpp"
#include "powerlist/algorithms/convolution.hpp"
#include "powerlist/algorithms/fft.hpp"
#include "powerlist/algorithms/gray.hpp"
#include "powerlist/algorithms/hadamard.hpp"
#include "powerlist/algorithms/inv_rev.hpp"
#include "powerlist/algorithms/karatsuba.hpp"
#include "powerlist/algorithms/map_reduce.hpp"
#include "powerlist/algorithms/matrix.hpp"
#include "powerlist/algorithms/mss.hpp"
#include "powerlist/algorithms/pointwise.hpp"
#include "powerlist/algorithms/polynomial.hpp"
#include "powerlist/algorithms/scan.hpp"
#include "powerlist/algorithms/shuffle.hpp"
#include "powerlist/algorithms/sort.hpp"
#include "powerlist/collector_functions.hpp"
#include "powerlist/executors.hpp"
#include "powerlist/jplf.hpp"
#include "powerlist/power_array.hpp"
#include "powerlist/power_stream.hpp"
#include "powerlist/spliterators.hpp"
#include "powerlist/view.hpp"

#include "plist/functions.hpp"
#include "plist/multiway_spliterator.hpp"
#include "plist/plist_view.hpp"

#include "mpisim/collectives.hpp"
#include "mpisim/communicator.hpp"
#include "mpisim/power_executor.hpp"

#include "observe/counters.hpp"
#include "observe/critical_path.hpp"
#include "observe/export.hpp"
#include "observe/flamegraph.hpp"
#include "observe/histogram.hpp"
#include "observe/metrics.hpp"
#include "observe/run_registry.hpp"
#include "observe/sampler.hpp"
#include "observe/trace.hpp"

#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace pls {

// ---- facade re-exports ------------------------------------------------
//
// The most-used streams types under their short names, so application code
// can say pls::Stream / pls::pipe / pls::stages::map without spelling the
// inner namespaces. The full namespaces stay available underneath.

using streams::ExecutionConfig;
using streams::ExecutionPlan;
using streams::OverloadPolicy;
using streams::PlanCache;
using streams::StagePipe;
using streams::StaticPipeline;
using streams::Stream;

using streams::evaluate;
using streams::stream_support::from_spliterator;

/// Stage-op factories for the typed static pipeline:
/// pls::pipe(pls::stages::map(f), pls::stages::filter(p), ...).
namespace stages = streams::stages;

/// Terminal descriptors for the unified evaluate() dispatch.
namespace terminals = streams::terminals;

/// The built-in collector library (to_vector, summing, counting, ...).
namespace collectors = streams::collectors;

/// Build a source-free compile-time stage stack; bind a source with
/// .over(...) and configure execution exactly like a Stream — including
/// round-tripping a session's ExecutionConfig:
///
///   pls::session s(cfg);
///   auto out = pls::pipe(pls::stages::map(f), pls::stages::filter(p))
///                  .over(values)
///                  .parallel(s.stream_config())
///                  .to_vector();
using streams::pipe;

/// One configuration object for a whole computation: how parallel, how
/// fine-grained, and whether to measure. The facade below derives pools,
/// executors and observability from it — the pre-facade spellings (raw
/// ForkJoinPool, ExecutionConfig, executor free functions) stay available
/// underneath.
struct config {
  /// Worker threads; 0 selects the process-wide common pool sized by
  /// ForkJoinPool::default_parallelism() (PLS_PARALLELISM env override).
  unsigned parallelism = 0;
  /// Decomposition grain: leaf size for skeleton executors, minimum chunk
  /// for stream terminal operations. 0 selects each layer's default
  /// (Java-style n/(4P) for streams, n/P for interleaved zip sources, 1
  /// for skeletons).
  std::size_t grain = 0;
  /// Enable span tracing for the session and report counter deltas.
  /// Counters are always collected when compiled in (PLS_OBSERVE=1);
  /// this additionally turns the trace recorder on for the session.
  bool observe = false;
  /// Enable critical-path profiling for the session: parallel executions
  /// record their split tree, and session::profile() analyses it (work T1,
  /// span T∞, parallelism, phase attribution). Zeros when PLS_OBSERVE=0.
  bool profile = false;
  /// Allow the destination-passing collect path for session streams
  /// (docs/execution.md); mirrors ExecutionConfig::sized_sink.
  bool sized_sink = true;
  /// Let the planner's PlanCache tune the stream grain from profiled
  /// critical-path runs when `grain` is 0 (docs/execution.md, "Execution
  /// planning"); mirrors ExecutionConfig::auto_grain. Also switchable
  /// process-wide via PLS_AUTO_GRAIN=1.
  bool auto_grain = false;
  /// Service-layer knobs (docs/service.md), consumed by sessions opened
  /// from pls::service specs: per-session ingest-queue capacity, the
  /// qband watermark pair within it (0 = each mark's documented default),
  /// and the congestion policy. Mirror ExecutionConfig::queue_capacity /
  /// high_watermark / low_watermark / overload; batch terminals ignore
  /// them.
  std::size_t queue_capacity = 1024;
  std::size_t high_watermark = 0;
  std::size_t low_watermark = 0;
  OverloadPolicy overload = OverloadPolicy::kBlock;
};

/// A configured execution scope: owns (or borrows) the pool, carries the
/// grain, and scopes observability. Create one directly or through
/// pls::run(). Sessions are cheap when parallelism==0 (they borrow the
/// common pool).
class session {
 public:
  /// config.observe opens a TraceSession and config.profile a
  /// ProfileSession for the session's lifetime: each turns its recorder on
  /// when it was off, and off again (the trace flushed to its output
  /// path, PLS_TRACE_PATH) when the session ends.
  explicit session(const config& cfg) : cfg_(cfg) {
    if (cfg_.parallelism != 0) owned_pool_.emplace(cfg_.parallelism);
    counters_at_start_ = pool().counter_totals();
    runs_total_at_start_ = observe::RunRegistry::global().total();
    if (cfg_.observe) trace_.emplace();
    if (cfg_.profile) profile_.emplace();
  }

  session(const session&) = delete;
  session& operator=(const session&) = delete;

  const config& options() const noexcept { return cfg_; }

  /// The pool this session executes on.
  forkjoin::ForkJoinPool& pool() {
    return owned_pool_ ? *owned_pool_ : forkjoin::ForkJoinPool::common();
  }

  /// Stream execution config bound to this session's pool and settings;
  /// pass to any streams terminal operation (or Stream::collect
  /// overloads). Round-trips the session's stream-relevant options
  /// losslessly: pool, grain, sized_sink and auto_grain all carry over.
  streams::ExecutionConfig stream_config() {
    return streams::ExecutionConfig{}
        .with_pool(pool())
        .with_min_chunk(cfg_.grain)
        .with_sized_sink(cfg_.sized_sink)
        .with_auto_grain(cfg_.auto_grain)
        .with_queue_capacity(cfg_.queue_capacity)
        .with_watermarks(cfg_.high_watermark, cfg_.low_watermark)
        .with_overload_policy(cfg_.overload);
  }

  /// The plan behind the most recent terminal this thread ran — verdicts,
  /// reasons, routing (streams::last_plan). Fork-join skeleton runs record
  /// a synthesized plan, so this covers session::execute too.
  const streams::ExecutionPlan& plan() const { return streams::last_plan(); }

  /// Human-readable dump of plan(): why the last run took the path it
  /// took (stage summary, DPS verdict with reason, drive, grain, kernel).
  std::string explain() const { return streams::last_plan().explain(); }

  /// The skeleton leaf size for this session (config grain, or `fallback`
  /// when the grain is auto).
  std::size_t grain_or(std::size_t fallback) const noexcept {
    return cfg_.grain != 0 ? cfg_.grain : fallback;
  }

  /// Run a PowerFunction on the session pool; equivalent to
  /// execute_forkjoin(pool(), f, input, ctx, grain). The run appends one
  /// record to runs(): its counter delta, wall time and plan.
  template <typename TV, typename R, typename Ctx>
  R execute(const powerlist::PowerFunction<std::remove_const_t<TV>, R, Ctx>& f,
            powerlist::PowerListView<TV> input, Ctx ctx = Ctx{}) {
    return powerlist::execute_forkjoin(pool(), f, input, ctx, grain_or(1));
  }

  /// Counter delta accumulated by this session's pool since the session
  /// started (zeros when PLS_OBSERVE=0).
  observe::CounterTotals counters() {
    return pool().counter_totals() - counters_at_start_;
  }

  /// Chrome-trace JSON of everything recorded while the session traced;
  /// meaningful when config.observe was set.
  std::string trace_json() const {
    return observe::TraceRecorder::global().chrome_json();
  }

  /// Critical-path analysis of the trees profiled since this session
  /// started (ProfileSession::stats()); all zeros unless config.profile
  /// was set, and always with PLS_OBSERVE=0.
  observe::CriticalPathStats profile() const {
    return profile_ ? profile_->stats() : observe::CriticalPathStats{};
  }

  /// Collapsed-stack (folded) flamegraph of the profiled split trees.
  std::string flamegraph() const { return observe::flamegraph_folded(); }

  /// Process-wide latency histograms (task run, steal latency, queue
  /// depth, leaf/combine run); zeros when PLS_OBSERVE=0.
  observe::HistogramSetSnapshot histograms() const {
    return observe::aggregate_histograms();
  }

  /// Run records appended since this session started (one per executed
  /// terminal: plan identity, counter deltas, wall time, leaf latency —
  /// see observe/run_registry.hpp). Empty when PLS_OBSERVE=0; bounded by
  /// the registry's keep-latest ring for very long sessions.
  std::vector<observe::RunRecord> runs() const {
    return observe::RunRegistry::global().records_since(runs_total_at_start_);
  }

  /// One fresh metrics-registry sample (counters, histogram quantiles,
  /// pool gauges, PlanCache occupancy), e.g. to render with
  /// observe::write_prometheus. Empty when PLS_OBSERVE=0.
  observe::MetricsSample metrics() const {
    return observe::MetricsRegistry::global().collect();
  }

 private:
  config cfg_;
  std::optional<forkjoin::ForkJoinPool> owned_pool_;
  observe::CounterTotals counters_at_start_{};
  std::uint64_t runs_total_at_start_ = 0;
  std::optional<observe::TraceSession> trace_;
  std::optional<observe::ProfileSession> profile_;
};

/// The single entry point: configure, run, return the callable's result.
/// The callable either takes the session (to reach the pool, stream
/// config, executors and metrics) or takes no arguments, in which case it
/// simply runs on the session's pool:
///
///   auto sum = pls::run({.parallelism = 8}, [&](pls::session& s) {
///     return pls::streams::Stream<long>::of_shared(data)
///         .parallel(s.stream_config())
///         .reduce(0L, op);
///   });
template <typename Fn>
auto run(const config& cfg, Fn&& fn) {
  session s(cfg);
  if constexpr (std::is_invocable_v<Fn&, session&>) {
    return fn(s);
  } else {
    return s.pool().run(std::forward<Fn>(fn));
  }
}

}  // namespace pls
