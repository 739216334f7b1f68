// The execution planner: every admission decision the runtime makes —
// destination-passing (DPS) collect admission, drive mode, split grain,
// and chunk-kernel eligibility — is decided HERE, once, and recorded in
// an ExecutionPlan value. Terminal evaluation (streams/parallel_eval.hpp),
// the typed static pipeline, the multiway collect, and the PowerList
// adaptation layer all plan-then-execute: they ask plan_fused_pipeline()
// (or one of the single-home predicates below) and obey the verdicts,
// instead of re-deriving routing at each entry point.
//
// Fusion itself is not a decision: every pipeline is a fused source plus
// stage chain from construction (streams/fusion.hpp).
//
// The plan is pure data: source shape, stage summary, a DPS verdict with
// its reason, the drive mode, the resolved grain, and the kernel
// selection. explain() renders it for humans; bench JSON carries it as
// plan_* fields; the last plan of the calling thread is kept for
// pls::session::explain(), and each run's RunRecord carries its identity.
//
// On top of the plan sits the first slice of adaptive execution (ROADMAP
// item 5): a process-global PlanCache keyed by pipeline shape. Profiled
// runs feed their critical-path trees (measured T1 / T∞, per-leaf
// accumulate cost, leaf-run latency quantiles) back into the cache, and
// the next plan for the same shape auto-picks min_chunk when the user
// left it 0 — never coarser than the Java-style n/(4P) default, finer
// when the measured per-element cost shows default leaves overshooting
// the leaf-time budget (docs/execution.md, "Execution planning").
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <ranges>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "forkjoin/pool.hpp"
#include "observe/config.hpp"
#include "observe/counters.hpp"
#include "observe/critical_path.hpp"
#include "observe/histogram.hpp"
#include "observe/metrics.hpp"
#include "observe/run_registry.hpp"
#include "observe/trace.hpp"
#include "streams/fusion.hpp"
#include "streams/spliterator.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace pls::streams {

// ---- execution configuration -----------------------------------------

/// What an ingest queue does with offered elements while congested (at or
/// above its high watermark) — the qband-style flow-control choice of the
/// service layer (src/service/queue.hpp, docs/service.md).
enum class OverloadPolicy : std::uint8_t {
  kBlock,   ///< producers wait until the queue drains below the low mark
  kShed,    ///< drop offered elements (counted) until below the low mark
  kSample,  ///< keep every k-th offered element, drop (and count) the rest
};

inline const char* overload_policy_name(OverloadPolicy p) {
  switch (p) {
    case OverloadPolicy::kBlock: return "block";
    case OverloadPolicy::kShed: return "shed";
    case OverloadPolicy::kSample: return "sample";
  }
  return "?";
}

/// Where and how a terminal operation executes. The chainable with_*
/// setters below are THE execution-config builder: Stream<T>'s with_*
/// methods and pls::session::stream_config() both delegate here, so every
/// knob exists exactly once and round-trips losslessly between surfaces.
struct ExecutionConfig {
  /// Pool for parallel evaluation; nullptr selects ForkJoinPool::common().
  forkjoin::ForkJoinPool* pool = nullptr;
  /// Split until chunks are at most this size; 0 selects the Java-style
  /// default, estimate_size / (4 * parallelism) — or, when auto-grain is
  /// enabled and the PlanCache holds a profile for this pipeline shape,
  /// the profiler-tuned grain (see PlanCache below). INTERLEAVED (zip)
  /// sources instead get estimate_size / parallelism (interleaved_grain).
  std::uint64_t min_chunk = 0;
  /// Permit the destination-passing (sized-sink) collect path when source
  /// and collector qualify. Off forces the supplier/combiner path — used
  /// by the fallback-equivalence tests and the A/B benches.
  bool sized_sink = true;
  /// Let the planner consume PlanCache profiles to pick min_chunk when
  /// it was left 0. Also enabled process-wide by PLS_AUTO_GRAIN=1.
  bool auto_grain = false;
  /// Service-layer knobs (src/service/): bounded ingest-queue capacity
  /// per session, the qband watermarks within it, and what to do with
  /// offered elements while congested. Ignored by batch terminals.
  std::size_t queue_capacity = 1024;
  /// High watermark: the queue is congested at or above this depth.
  /// 0 selects queue_capacity.
  std::size_t high_watermark = 0;
  /// Low watermark: congestion clears once depth drains to or below this.
  /// 0 selects high_watermark / 2.
  std::size_t low_watermark = 0;
  OverloadPolicy overload = OverloadPolicy::kBlock;

  ExecutionConfig& with_pool(forkjoin::ForkJoinPool& p) {
    pool = &p;
    return *this;
  }
  ExecutionConfig& with_min_chunk(std::uint64_t n) {
    min_chunk = n;
    return *this;
  }
  ExecutionConfig& with_sized_sink(bool enabled) {
    sized_sink = enabled;
    return *this;
  }
  ExecutionConfig& with_auto_grain(bool enabled) {
    auto_grain = enabled;
    return *this;
  }
  ExecutionConfig& with_queue_capacity(std::size_t n) {
    queue_capacity = n;
    return *this;
  }
  /// Set both qband marks at once (the pair is only meaningful together).
  /// `low` defaults to 0 = "half of high", matching the field defaults.
  ExecutionConfig& with_watermarks(std::size_t high, std::size_t low = 0) {
    high_watermark = high;
    low_watermark = low;
    return *this;
  }
  ExecutionConfig& with_overload_policy(OverloadPolicy p) {
    overload = p;
    return *this;
  }

  forkjoin::ForkJoinPool& effective_pool() const {
    return pool != nullptr ? *pool : forkjoin::ForkJoinPool::common();
  }

  /// The effective qband marks after defaulting: high = capacity when
  /// unset, low = high / 2 (at least 1) when unset. PLS_CHECKed so a
  /// mis-ordered pair fails loudly at session construction.
  std::size_t effective_high_watermark() const {
    const std::size_t high =
        high_watermark == 0 ? queue_capacity : high_watermark;
    PLS_CHECK(high <= queue_capacity,
              "high watermark exceeds queue capacity");
    return high;
  }
  std::size_t effective_low_watermark() const {
    const std::size_t high = effective_high_watermark();
    const std::size_t low =
        low_watermark == 0 ? (high / 2 > 0 ? high / 2 : 1) : low_watermark;
    PLS_CHECK(low <= high, "low watermark exceeds high watermark");
    return low;
  }

  std::uint64_t target_size(std::uint64_t estimate, unsigned parallelism) const;
};

// ---- plan vocabulary -------------------------------------------------

/// Which terminal operation the plan serves.
enum class TerminalKind : std::uint8_t {
  kCollect,
  kReduce,
  kForEach,
  kCount,
  kAnyMatch,   ///< short-circuit: true on first satisfying element
  kAllMatch,   ///< short-circuit: false on first failing element
  kNoneMatch,  ///< short-circuit: false on first satisfying element
  kFindFirst,  ///< short-circuit: first element in encounter order
  kPowerFunction,  ///< synthesized plans of the skeleton executors
};

inline const char* terminal_name(TerminalKind k) {
  switch (k) {
    case TerminalKind::kCollect: return "collect";
    case TerminalKind::kReduce: return "reduce";
    case TerminalKind::kForEach: return "for_each";
    case TerminalKind::kCount: return "count";
    case TerminalKind::kAnyMatch: return "any_match";
    case TerminalKind::kAllMatch: return "all_match";
    case TerminalKind::kNoneMatch: return "none_match";
    case TerminalKind::kFindFirst: return "find_first";
    case TerminalKind::kPowerFunction: return "power_function";
  }
  return "?";
}

/// Short-circuit terminals cancel through the terminal sink itself: their
/// fused drive is always the element loop, whatever the stage chain says.
inline bool terminal_short_circuits(TerminalKind k) {
  return k == TerminalKind::kAnyMatch || k == TerminalKind::kAllMatch ||
         k == TerminalKind::kNoneMatch || k == TerminalKind::kFindFirst;
}

/// How the terminal drives the pipeline.
enum class DriveMode : std::uint8_t {
  kSequential,   ///< one leaf on the calling thread
  kForkJoinTree, ///< recursive split to grain, fork-join leaves
  kElementLoop,  ///< cancelling fused chain: single element-mode push loop
  kStatefulLoop, ///< stateful fused chain: single leaf, chunked transport
};

inline const char* drive_name(DriveMode m) {
  switch (m) {
    case DriveMode::kSequential: return "sequential";
    case DriveMode::kForkJoinTree: return "fork-join tree";
    case DriveMode::kElementLoop: return "element loop";
    case DriveMode::kStatefulLoop: return "stateful loop";
  }
  return "?";
}

/// Leaf kernel selection: whole-chunk collector fold (the SIMD hook,
/// streams/collector.hpp ChunkAccumulatingCollector) vs per-element loop.
enum class KernelMode : std::uint8_t { kScalarLoop, kChunkKernel };

inline const char* kernel_name(KernelMode m) {
  return m == KernelMode::kChunkKernel ? "chunk" : "scalar";
}

/// Which entry point produced the plan.
enum class PlanOrigin : std::uint8_t {
  kDynamic,        ///< Stream terminal through evaluate()
  kStatic,         ///< StaticPipeline, fused with its compiled stage stack
  kSynthesized,    ///< skeleton executor (no stream pipeline)
  kService,        ///< ServiceSession micro-batch through a reused chain
};

inline const char* origin_name(PlanOrigin o) {
  switch (o) {
    case PlanOrigin::kDynamic: return "dynamic";
    case PlanOrigin::kStatic: return "static";
    case PlanOrigin::kSynthesized: return "synthesized";
    case PlanOrigin::kService: return "service";
  }
  return "?";
}

/// Why a verdict came out the way it did. kAdmitted is the positive
/// verdict; everything else names the first failed admission test.
enum class PlanReason : std::uint8_t {
  kAdmitted,
  kDisabledByConfig,
  kSourceNotSizedSubsized,
  kSourceNotWindowed,
  kWindowCountMismatch,
  kNotPowerOfTwo,
  kChainNotOneToOne,
  kChainCancels,
  kChainStateful,
  kCollectorNotSized,
  kTerminalNotCollect,
  kNotAStreamPipeline,
};

inline const char* reason_name(PlanReason r) {
  switch (r) {
    case PlanReason::kAdmitted: return "admitted";
    case PlanReason::kDisabledByConfig: return "disabled by config";
    case PlanReason::kSourceNotSizedSubsized:
      return "source not SIZED|SUBSIZED";
    case PlanReason::kSourceNotWindowed:
      return "source names no destination window";
    case PlanReason::kWindowCountMismatch:
      return "window count != estimated size";
    case PlanReason::kNotPowerOfTwo: return "count not a power of two";
    case PlanReason::kChainNotOneToOne: return "chain has a non-1:1 stage";
    case PlanReason::kChainCancels: return "chain has a cancelling stage";
    case PlanReason::kChainStateful:
      return "chain has a stateful stage (single-leaf drive only)";
    case PlanReason::kCollectorNotSized:
      return "collector is not a sized sink";
    case PlanReason::kTerminalNotCollect: return "terminal is not collect";
    case PlanReason::kNotAStreamPipeline:
      return "skeleton execution, no stream pipeline";
  }
  return "?";
}

/// Where the resolved grain came from.
enum class GrainSource : std::uint8_t {
  kNone,      ///< sequential drive: no splitting, grain unused
  kExplicit,  ///< cfg.min_chunk
  kDefault,   ///< Java-style estimate / (4 * parallelism)
  kAutoTuned, ///< PlanCache profile (auto-grain)
  kInterleaved, ///< estimate / parallelism for an INTERLEAVED source
};

inline const char* grain_source_name(GrainSource g) {
  switch (g) {
    case GrainSource::kNone: return "n/a";
    case GrainSource::kExplicit: return "explicit";
    case GrainSource::kDefault: return "default n/(4P)";
    case GrainSource::kAutoTuned: return "auto-tuned";
    case GrainSource::kInterleaved: return "interleaved n/P";
  }
  return "?";
}

// ---- the plan --------------------------------------------------------

/// One terminal operation's complete routing decision, as pure data.
/// Everything the execution layer needs to run — and everything a human
/// needs to see why it ran that way.
struct ExecutionPlan {
  // Provenance.
  PlanOrigin origin = PlanOrigin::kDynamic;
  TerminalKind terminal = TerminalKind::kCollect;
  bool parallel = false;
  unsigned parallelism = 1;

  // Shape of the fused pipeline's source.
  std::uint64_t source_size = 0;
  bool sized = false;
  bool subsized = false;
  bool windowed = false;
  bool power_of_two = false;
  bool interleaved = false;

  // Stage summary of the chain.
  std::uint32_t stages = 0;
  bool one_to_one = true;
  bool cancels = false;
  bool stateful = false;

  // DPS verdict, with the first failed admission test as its reason.
  bool dps = false;
  PlanReason dps_reason = PlanReason::kAdmitted;
  std::optional<OutputWindow> window{};  ///< set iff dps

  // Routing.
  DriveMode drive = DriveMode::kSequential;
  std::uint64_t grain = 0;
  GrainSource grain_source = GrainSource::kNone;
  KernelMode kernel = KernelMode::kScalarLoop;
  std::uint64_t cache_key = 0;  ///< PlanCache shape key (parallel plans)
  /// Parts asked of each split (Spliterator::try_split_n when above 2;
  /// sources that refuse split in two). Set by the multiway collect and
  /// by PList fork-join runs (the root's arity).
  unsigned arity = 2;

  /// Human-readable dump (pls::session::explain()).
  std::string explain() const {
    std::ostringstream os;
    os << "plan: " << terminal_name(terminal) << ", "
       << (parallel ? "parallel" : "sequential");
    if (parallel) os << " (P=" << parallelism << ")";
    os << ", " << origin_name(origin) << '\n';
    os << "  source : " << source_size << " elements";
    if (sized && subsized) os << ", SIZED|SUBSIZED";
    else if (sized) os << ", SIZED";
    if (windowed) os << ", windowed";
    if (power_of_two) os << ", power-of-two";
    if (interleaved) os << ", interleaved";
    os << '\n';
    os << "  stages : ";
    if (origin == PlanOrigin::kSynthesized) {
      os << "none (skeleton executor)";
    } else {
      os << stages << " fused (" << (one_to_one ? "1:1" : "non-1:1") << ", "
         << (cancels ? "cancelling" : "non-cancelling");
      if (stateful) os << ", stateful";
      os << ")";
    }
    os << '\n';
    os << "  dps    : " << reason_name(dps_reason);
    if (dps && window.has_value()) {
      os << " (window start=" << window->start << " incr=" << window->incr
         << " count=" << window->count << ")";
    }
    os << '\n';
    os << "  drive  : " << drive_name(drive);
    if (parallel && drive == DriveMode::kForkJoinTree) {
      os << ", grain " << grain << " (" << grain_source_name(grain_source)
         << ")";
      if (arity > 2) os << ", arity " << arity;
    }
    os << '\n';
    os << "  kernel : " << kernel_name(kernel) << '\n';
    return os.str();
  }
};

// ---- admission predicates (the single home) --------------------------

/// DPS source admission: the source must be exactly sized through splits
/// (SIZED|SUBSIZED), name a destination window consistent with its size,
/// and hold a power of two elements (the shape whose tie/zip splits the
/// window arithmetic mirrors) unless it is INTERLEAVED. The split
/// products of any source partition its window, so DPS is correct at
/// every size; the power-of-two rule only keeps contiguous sources, which
/// the pairwise fold reassembles in order, on the fold. An interleaved
/// source's parts fold into a permutation, so its window is admitted at
/// any size (e.g. an n-way zip over 3·2^k elements).
inline PlanReason dps_window_reason(bool sized_subsized,
                                    const std::optional<OutputWindow>& w,
                                    std::uint64_t estimate,
                                    bool interleaved) {
  if (!sized_subsized) return PlanReason::kSourceNotSizedSubsized;
  if (!w.has_value()) return PlanReason::kSourceNotWindowed;
  if (w->count != estimate) return PlanReason::kWindowCountMismatch;
  if (!interleaved && !is_power_of_two(w->count)) {
    return PlanReason::kNotPowerOfTwo;
  }
  return PlanReason::kAdmitted;
}

// ---- grain policy ----------------------------------------------------

/// The Java-style default split target: estimate / (4 * parallelism),
/// floored at 1 (AbstractTask.suggestTargetSize).
inline std::uint64_t default_grain(std::uint64_t estimate,
                                   unsigned parallelism) {
  const std::uint64_t t = estimate / (4ull * parallelism);
  return t > 0 ? t : 1;
}

/// The split target of an INTERLEAVED source (a zip split): estimate /
/// parallelism, floored at 1 — one leaf per worker, rounded up to a power
/// of two by the halving splits. Zip siblings share cache lines: while
/// the stride fits in a line, each leaf streams every line of the source,
/// so k leaves move about k times its bytes. The n/(4P) default's spare leaves buy load balance
/// at the price of that traffic, and on a zip source the traffic costs
/// more: a 2^20-coefficient zip Horner on 3 workers of a 4-vCPU host took
/// 2.39 ms in 16 leaves, 1.50 ms in 8 and 1.28 ms in 4 (p50 of 200).
inline std::uint64_t interleaved_grain(std::uint64_t estimate,
                                       unsigned parallelism) {
  const std::uint64_t t = estimate / parallelism;
  return t > 0 ? t : 1;
}

inline std::uint64_t ExecutionConfig::target_size(std::uint64_t estimate,
                                                  unsigned parallelism) const {
  if (min_chunk != 0) return min_chunk;
  return default_grain(estimate, parallelism);
}

/// Process-wide auto-grain switch: PLS_AUTO_GRAIN=1 (anything but "" or
/// a leading '0') turns the PlanCache consumer on for every config.
inline bool auto_grain_env() {
  static const bool v = [] {
    const char* e = std::getenv("PLS_AUTO_GRAIN");
    return e != nullptr && e[0] != '\0' && e[0] != '0';
  }();
  return v;
}

inline bool auto_grain_enabled(const ExecutionConfig& cfg) {
  return cfg.auto_grain || auto_grain_env();
}

// ---- the plan cache (adaptive execution, ROADMAP item 5) -------------

/// What a profiled run taught us about one pipeline shape.
struct PlanProfile {
  std::uint64_t samples = 0;      ///< profiled runs folded in
  double per_element_ns = 0.0;    ///< running mean accumulate cost/element
  double work_ns = 0.0;           ///< last measured T1 of the split tree
  double span_ns = 0.0;           ///< last measured T∞
  std::uint64_t leaves = 0;       ///< last leaf count
  double leaf_run_p50_ns = 0.0;   ///< leaf-run histogram median (last run)
  std::uint64_t tuned_grain = 0;  ///< recommendation; 0 = none yet
};

/// The process-wide leaf-run latency histogram. Reads only kLeafRun of
/// each slot: every metric of every slot costs microseconds per read.
inline observe::HistogramSnapshot leaf_run_histogram() {
  return observe::aggregate_histogram(observe::Metric::kLeafRun);
}

namespace detail {

/// Fold of a critical-path subtree: total work, critical path, leaf
/// accumulate time and element throughput — the measured quantities the
/// grain policy consumes.
struct CpWalkTotals {
  std::uint64_t work_ticks = 0;
  std::uint64_t span_ticks = 0;
  std::uint64_t accumulate_ticks = 0;
  std::uint64_t elements = 0;
  std::uint64_t leaves = 0;
};

inline CpWalkTotals walk_cp(const observe::CpNode* n) {
  CpWalkTotals t;
  if (n == nullptr) return t;
  const CpWalkTotals l = walk_cp(n->left);
  const CpWalkTotals r = walk_cp(n->right);
  t.work_ticks = n->own_ticks() + l.work_ticks + r.work_ticks;
  t.span_ticks = n->own_ticks() + std::max(l.span_ticks, r.span_ticks);
  t.accumulate_ticks =
      n->accumulate_ticks + l.accumulate_ticks + r.accumulate_ticks;
  t.elements = n->elements + l.elements + r.elements;
  t.leaves = (n->is_leaf() ? 1 : 0) + l.leaves + r.leaves;
  return t;
}

}  // namespace detail

/// Leaf-time budget for the auto-tuned grain: leaves should take about
/// this long. Well above the measured per-steal cost (µs), well below
/// typical terminal wall times — so finer grain buys balance without
/// overhead domination.
inline constexpr double kAutoGrainTargetLeafNs = 100e3;  // 100 µs

/// Profiler-feedback grain store, keyed by pipeline shape (terminal kind,
/// source size, parallelism, fused stage summary). plan_feedback() feeds
/// it after each profiled parallel run; plan_fused_pipeline() consumes it
/// when auto-grain is on and min_chunk was left 0.
///
/// Policy: the tuned grain is min(default n/(4P), leaf-time budget /
/// measured per-element cost) — never coarser than the Java default (so
/// an auto-grain plan never has fewer leaves, and a workload the profile
/// fits degrades to exactly the default plan), finer when the measured
/// per-element cost shows default leaves overshooting the 100 µs budget
/// (bounding leaf time bounds the span added by one straggler leaf).
class PlanCache {
 public:
  static PlanCache& global() {
    static PlanCache c;
    return c;
  }

  /// The tuned grain for `key`, if a profile produced one.
  std::optional<std::uint64_t> lookup(std::uint64_t key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end() || it->second.tuned_grain == 0) return std::nullopt;
    return it->second.tuned_grain;
  }

  /// The full profile for `key` (diagnostics / tests).
  std::optional<PlanProfile> profile(std::uint64_t key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

  /// Install a profile directly (tests, replay).
  void put(std::uint64_t key, const PlanProfile& p) {
    std::lock_guard<std::mutex> lock(mutex_);
    map_[key] = p;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
  }

  /// The grain recommendation for a shape whose accumulate phase costs
  /// `per_element_ns` per element (see the class comment for the policy).
  static std::uint64_t tuned_grain_for(std::uint64_t estimate,
                                       unsigned parallelism,
                                       double per_element_ns) {
    const std::uint64_t base = default_grain(estimate, parallelism);
    if (per_element_ns <= 0.0) return base;
    const double by_budget = kAutoGrainTargetLeafNs / per_element_ns;
    const std::uint64_t budget =
        by_budget < 1.0 ? 1 : static_cast<std::uint64_t>(by_budget);
    return std::min(base, budget);
  }

  /// Fold one profiled run's critical-path tree into the profile for
  /// `key` and re-derive the tuned grain. No-op when profiling was off
  /// (`root == nullptr` — always the case with PLS_OBSERVE=0) or the
  /// tree carries no accumulate measurements.
  void feed(std::uint64_t key, std::uint64_t estimate, unsigned parallelism,
            const observe::CpNode* root) {
    if (root == nullptr) return;
    const detail::CpWalkTotals t = detail::walk_cp(root);
    if (t.elements == 0 || t.accumulate_ticks == 0) return;
    const double scale = observe::ns_per_tick();
    const double per_element =
        static_cast<double>(t.accumulate_ticks) * scale /
        static_cast<double>(t.elements);
    const double leaf_p50 = leaf_run_histogram().quantile(0.5, scale);
    std::lock_guard<std::mutex> lock(mutex_);
    PlanProfile& p = map_[key];
    p.per_element_ns =
        (p.per_element_ns * static_cast<double>(p.samples) + per_element) /
        static_cast<double>(p.samples + 1);
    p.samples += 1;
    p.work_ns = static_cast<double>(t.work_ticks) * scale;
    p.span_ns = static_cast<double>(t.span_ticks) * scale;
    p.leaves = t.leaves;
    p.leaf_run_p50_ns = leaf_p50;
    p.tuned_grain = tuned_grain_for(estimate, parallelism, p.per_element_ns);
  }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, PlanProfile> map_;
};

/// Deterministic shape key (FNV-1a over the plan-relevant shape fields).
inline std::uint64_t plan_cache_key(TerminalKind kind,
                                    std::uint64_t source_size,
                                    unsigned parallelism, std::uint32_t stages,
                                    bool one_to_one, bool cancels,
                                    bool stateful = false) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(kind));
  mix(source_size);
  mix(parallelism);
  mix(stages);
  mix(one_to_one ? 1 : 2);
  mix(cancels ? 1 : 2);
  if (stateful) mix(3);
  return h;
}

// ---- plan construction -----------------------------------------------

namespace detail {

/// Resolve grain, drive, kernel and cache key once the verdict fields
/// are in place.
inline void finish_plan(ExecutionPlan& p, TerminalKind kind,
                        bool chunk_collector, bool parallel,
                        const ExecutionConfig& cfg) {
  p.terminal = kind;
  p.parallel = parallel;
  p.kernel = (kind == TerminalKind::kCollect && chunk_collector && !p.dps &&
              !p.cancels)
                 ? KernelMode::kChunkKernel
                 : KernelMode::kScalarLoop;
  // Short-circuit terminals cancel through their terminal sink: they
  // always run the single element-mode push loop (sequential
  // encounter-order semantics).
  const bool terminal_cancels = terminal_short_circuits(kind);
  if (!parallel) {
    p.drive = terminal_cancels ? DriveMode::kElementLoop
                               : DriveMode::kSequential;
    p.grain = 0;
    p.grain_source = GrainSource::kNone;
    return;
  }
  p.drive = (p.cancels || terminal_cancels) ? DriveMode::kElementLoop
            : p.stateful                    ? DriveMode::kStatefulLoop
                                            : DriveMode::kForkJoinTree;
  p.parallelism = cfg.effective_pool().parallelism();
  p.cache_key = plan_cache_key(kind, p.source_size, p.parallelism, p.stages,
                               p.one_to_one, p.cancels, p.stateful);
  if (cfg.min_chunk != 0) {
    p.grain = cfg.min_chunk;
    p.grain_source = GrainSource::kExplicit;
    return;
  }
  // Auto-grain never applies here: its leaf-time budget would split the
  // source back into leaves that share cache lines.
  if (p.interleaved) {
    p.grain = interleaved_grain(p.source_size, p.parallelism);
    p.grain_source = GrainSource::kInterleaved;
    return;
  }
  p.grain = default_grain(p.source_size, p.parallelism);
  p.grain_source = GrainSource::kDefault;
  if (auto_grain_enabled(cfg)) {
    if (const auto tuned = PlanCache::global().lookup(p.cache_key)) {
      p.grain = std::min(p.grain, std::max<std::uint64_t>(*tuned, 1));
      p.grain_source = GrainSource::kAutoTuned;
    }
  }
}

}  // namespace detail

/// THE planning entry point: decide every admission question over a
/// fused pipeline — DPS, drive mode, grain (including auto-grain), kernel
/// — and return the verdicts as data. `collector_sized` /
/// `chunk_collector` are the compile-time collector facts of the
/// terminal, evaluated at the call site.
inline ExecutionPlan plan_fused_pipeline(const FusedPipeline& fp,
                                         TerminalKind kind,
                                         bool collector_sized,
                                         bool chunk_collector, bool parallel,
                                         const ExecutionConfig& cfg,
                                         PlanOrigin origin) {
  ExecutionPlan p;
  p.origin = origin;
  p.source_size = fp.estimate_size();
  p.sized = fp.source_has(kSized);
  p.subsized = fp.source_has(kSubsized);
  const auto w = fp.source_window();
  p.windowed = w.has_value();
  p.power_of_two = w.has_value() && is_power_of_two(w->count);
  p.interleaved = fp.source_has(kInterleaved);
  p.stages = static_cast<std::uint32_t>(fp.stage_count());
  p.one_to_one = fp.one_to_one();
  p.cancels = fp.cancels();
  p.stateful = fp.stateful();
  if (kind != TerminalKind::kCollect) {
    p.dps_reason = PlanReason::kTerminalNotCollect;
  } else if (!collector_sized) {
    p.dps_reason = PlanReason::kCollectorNotSized;
  } else if (!cfg.sized_sink) {
    p.dps_reason = PlanReason::kDisabledByConfig;
  } else if (p.stateful) {
    p.dps_reason = PlanReason::kChainStateful;
  } else if (!p.one_to_one) {
    p.dps_reason = PlanReason::kChainNotOneToOne;
  } else if (p.cancels) {
    p.dps_reason = PlanReason::kChainCancels;
  } else {
    p.dps_reason = dps_window_reason(p.sized && p.subsized, w,
                                     fp.estimate_size(), p.interleaved);
    if (p.dps_reason == PlanReason::kAdmitted) {
      p.dps = true;
      p.window = w;
    }
  }
  detail::finish_plan(p, kind, chunk_collector, parallel, cfg);
  return p;
}

// ---- plan recording and feedback -------------------------------------

namespace detail {
inline ExecutionPlan& last_plan_slot() {
  thread_local ExecutionPlan plan;
  return plan;
}
}  // namespace detail

/// Record `p` as the calling thread's most recent plan (done by every
/// planned entry point; readable through last_plan() for reports,
/// session::explain() and bench JSON).
inline void record_plan(const ExecutionPlan& p) {
  detail::last_plan_slot() = p;
}

/// The most recent plan recorded on this thread.
inline const ExecutionPlan& last_plan() {
  return detail::last_plan_slot();
}

// ---- continuous telemetry: run records + PlanCache gauge --------------

#if PLS_OBSERVE

/// RAII run recorder: constructed (by the terminal dispatchers) with the
/// finished plan just before execution starts, destroyed when the
/// terminal returns — including by exception unwind, so an aborted run
/// still leaves its record. The destructor turns the plan plus the
/// process-wide counter/leaf-histogram deltas and wall time into one
/// RunRecord and appends it to the RunRegistry, correlating run history
/// with pls::session::plan() through cache_key.
class RunScope {
 public:
  explicit RunScope(const ExecutionPlan& plan)
      : plan_(plan),
        counters_before_(observe::aggregate_counters()),
        leaf_before_(leaf_run_histogram()),
        start_ms_(observe::steady_now_ms()) {}

  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  ~RunScope() {
    observe::RunRecord rec;
    // Wall time first: the first ns_per_tick() below calibrates the tick
    // clock for ~2 ms, which is not the run's time.
    rec.wall_ms = observe::steady_now_ms() - start_ms_;
    rec.cache_key = plan_.cache_key;
    rec.terminal = terminal_name(plan_.terminal);
    rec.origin = origin_name(plan_.origin);
    rec.drive = drive_name(plan_.drive);
    rec.grain_source = grain_source_name(plan_.grain_source);
    rec.kernel = kernel_name(plan_.kernel);
    rec.dps_reason = reason_name(plan_.dps_reason);
    rec.parallel = plan_.parallel;
    rec.dps = plan_.dps;
    rec.parallelism = plan_.parallelism;
    rec.source_size = plan_.source_size;
    rec.grain = plan_.grain;
    rec.counters = observe::aggregate_counters() - counters_before_;
    const observe::HistogramSnapshot leaf =
        leaf_run_histogram() - leaf_before_;
    const double scale = observe::ns_per_tick();
    rec.leaf_p50_ns = leaf.quantile(0.5, scale);
    rec.leaf_p90_ns = leaf.quantile(0.9, scale);
    observe::RunRegistry::global().append(std::move(rec));
  }

 private:
  ExecutionPlan plan_;
  observe::CounterTotals counters_before_;
  observe::HistogramSnapshot leaf_before_;
  double start_ms_;
};

namespace detail {
/// Registers the PlanCache occupancy gauge with the metrics registry once
/// per process (inline variable: one registration across all TUs). Never
/// deregistered — both singletons are function-local statics whose
/// construction this initializer orders, and collect() is never called
/// during static destruction (the sampler stops first).
[[maybe_unused]] inline const std::uint64_t plan_cache_metrics_source =
    observe::MetricsRegistry::global().add_source(
        [](observe::MetricsSample& sample) {
          sample.rows.push_back(observe::MetricRow{
              "pls_plan_cache_entries", observe::MetricKind::kGauge,
              static_cast<double>(PlanCache::global().size()), "", "",
              "Pipeline shapes held by the PlanCache"});
        });
}  // namespace detail

#else  // !PLS_OBSERVE — run recording compiles to nothing.

class RunScope {
 public:
  explicit RunScope(const ExecutionPlan&) noexcept {}
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;
};

#endif  // PLS_OBSERVE

/// The plan-and-record step of the skeleton executors (PowerFunction and
/// PListFunction fork-join runs): records the synthesized plan of a run
/// over `length` elements (the divide-and-conquer drive is fixed by the
/// executor, so the DPS verdict reads kNotAStreamPipeline and the grain is
/// the caller's leaf size) and runs `body` inside its RunScope, so every
/// run appends exactly one RunRecord and session::explain() covers it.
template <typename Body>
auto run_synthesized(std::uint64_t length, std::uint64_t leaf_size,
                     unsigned parallelism, unsigned arity, Body&& body) {
  ExecutionPlan p;
  p.origin = PlanOrigin::kSynthesized;
  p.terminal = TerminalKind::kPowerFunction;
  p.parallel = true;
  p.parallelism = parallelism;
  p.source_size = length;
  p.sized = true;
  p.subsized = true;
  p.power_of_two = is_power_of_two(length);
  p.dps_reason = PlanReason::kNotAStreamPipeline;
  p.drive = DriveMode::kForkJoinTree;
  p.grain = leaf_size;
  p.grain_source = GrainSource::kExplicit;
  p.arity = arity;
  p.cache_key = plan_cache_key(TerminalKind::kPowerFunction, length,
                               parallelism, 0, true, false);
  record_plan(p);
  RunScope scope(p);
  return body();
}

/// Per-node instrumentation of split_walk's leaves and combines (below): a
/// leaf over `length` elements runs `basic` under an accumulate span, the
/// kLeafRun timer and the leaf counters; a combine at `depth` runs
/// `combine` under a combine span, the kCombineRun timer and the combine
/// counter. `cp` (nullptr for none) takes the critical-path phases. All
/// inert under PLS_OBSERVE=0.
///
/// `length` is the leaf's element count, or — for a leaf that learns it
/// only by running, a stream count over a filtering chain — a callable
/// returning it. Either way the count is reported as the leaf closes.
template <typename Length, typename Fn>
auto observed_leaf(Length length, observe::CpNode* cp, Fn&& basic) {
  struct Report {
    Length& length;
    observe::CpNode* cp;
    observe::Span& span;
    observe::CounterBlock& counters;
    ~Report() {
      std::uint64_t n = 0;
      if constexpr (std::is_invocable_v<Length&>) {
        n = length();
      } else {
        n = length;
      }
      span.set_arg(n);
      observe::cp_add_elements(cp, n);
      counters.on_leaf(n);
    }
  };
  observe::ObserveSlot& slot = observe::local_slot();
  observe::Span span(observe::EventKind::kAccumulate);
  observe::CpScope phase(cp, observe::CpPhase::kAccumulate);
  observe::LatencyTimer leaf_timer(slot.histograms, observe::Metric::kLeafRun);
  const Report report{length, cp, span, slot.counters};
  return basic();
}

template <typename Fn>
auto observed_combine(unsigned depth, observe::CpNode* cp, Fn&& combine) {
  observe::Span span(observe::EventKind::kCombine, depth);
  observe::CpScope phase(cp, observe::CpPhase::kCombine);
  observe::ObserveSlot& slot = observe::local_slot();
  observe::LatencyTimer combine_timer(slot.histograms,
                                      observe::Metric::kCombineRun);
  slot.counters.on_combine();
  return combine();
}

/// THE split-tree walk, shared by the streams evaluator and every
/// divide-and-conquer skeleton (PowerFunction, PListFunction, JPLF).
/// `split(node)` returns std::nullopt for a leaf, which runs as
/// `leaf(node, cp)`, or the node's two or more parts in encounter order:
/// any value with `size()` and `operator[](k)` yielding part k's Node. A
/// split node records the split (span, critical-path phase,
/// `on_split(depth)`), forks its parts as a balanced binary tree —
/// halving the list through `pool->invoke_two`, or inline, left first,
/// when `pool` is null — walks each part at `depth + 1`, and hands the
/// parts' results to `combine(node, results, depth, cp)`, where
/// `results[k]` is part k's result. Leaves that return void have nothing
/// to combine: `combine` is never called. A binary split keeps its result
/// slots on the stack.
template <typename Node, typename Split, typename Leaf, typename Combine>
auto split_walk(forkjoin::ForkJoinPool* pool, const Node& node,
                unsigned depth, observe::CpNode* cp, const Split& split,
                const Leaf& leaf, const Combine& combine)
    -> std::invoke_result_t<const Leaf&, const Node&, observe::CpNode*> {
  using R = std::invoke_result_t<const Leaf&, const Node&, observe::CpNode*>;
  auto parts = [&] {
    observe::Span span(observe::EventKind::kSplit, depth);
    observe::CpScope phase(cp, observe::CpPhase::kSplit);
    auto p = split(node);
    if (!p) {  // a leaf: nothing was split
      span.discard();
      phase.discard();
    }
    return p;
  }();
  if (!parts) return leaf(node, cp);
  const std::size_t n = parts->size();
  observe::local_counters().on_split(depth);
  using Slot = std::optional<std::conditional_t<std::is_void_v<R>, bool, R>>;
  Slot pair[2];
  std::vector<Slot> many(n > 2 ? n : 0);
  Slot* const slots = n > 2 ? many.data() : pair;
  const auto fork = [&](const auto& self, std::size_t first, std::size_t count,
                        observe::CpNode* at) -> void {
    if (count == 1) {
      if constexpr (std::is_void_v<R>) {
        split_walk<Node>(pool, (*parts)[first], depth + 1, at, split, leaf,
                         combine);
      } else {
        slots[first].emplace(split_walk<Node>(pool, (*parts)[first],
                                              depth + 1, at, split, leaf,
                                              combine));
      }
      return;
    }
    const std::size_t mid = count / 2;
    const auto [cl, cr] = observe::cp_fork(at);
    auto left = [&, cl = cl] { self(self, first, mid, cl); };
    auto right = [&, cr = cr] { self(self, first + mid, count - mid, cr); };
    if (pool != nullptr) {
      pool->invoke_two(left, right);
    } else {
      left();
      right();
    }
  };
  fork(fork, 0, n, cp);
  if constexpr (!std::is_void_v<R>) {
    auto results = std::span<Slot>(slots, n) |
                   std::views::transform([](Slot& r) -> R& { return *r; });
    return combine(node, results, depth, cp);
  }
}

/// Feed one profiled parallel run back into the PlanCache — called by
/// the execution layer with the run's critical-path root (nullptr when
/// profiling is off, making this free). The next auto-grain plan for the
/// same shape consumes the updated profile: re-planned after each
/// profiled run, as adaptive execution requires.
inline void plan_feedback(const ExecutionPlan& plan,
                          const observe::CpNode* root) {
  if (root == nullptr || !plan.parallel || plan.cache_key == 0) return;
  PlanCache::global().feed(plan.cache_key, plan.source_size, plan.parallelism,
                           root);
}

}  // namespace pls::streams
