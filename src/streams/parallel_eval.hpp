// Terminal-operation evaluator: sequential and fork-join parallel, over
// one push transport.
//
// Every terminal runs fused (streams/fusion.hpp): a pipeline is a source
// plus a stage chain, and each leaf composes one sink chain and drives it
// with a single push loop. Parallel evaluation mirrors Java's:
// the pipeline is split recursively until chunks reach a target size
// (estimate / (parallelism * 4) by default, as in
// AbstractTask.suggestTargetSize), each leaf chunk is reduced
// sequentially, and sibling results are merged on the way up — the
// divide-and-conquer template the paper builds PowerList functions on.
// try_split returns the *prefix*, so the left child of every fork is the
// earlier half: combining left <- right preserves encounter order for
// non-commutative combiners. One split-tree walk (split_walk,
// streams/plan.hpp) serves every terminal and every divide-and-conquer
// skeleton; the terminals differ only in their leaf action and combine.
//
// collect has a second execution model, destination-passing style (DPS):
// when the collector is a sized sink (streams/sized_sink.hpp) and the
// source is SIZED|SUBSIZED, windowed (WindowedSource) and power-of-two
// sized, the result is allocated exactly once, each chunk's destination
// window is threaded down the split tree, and every leaf writes its
// elements straight to their final positions — the combine phase becomes
// a no-op join, dropping combine-phase data movement from O(n log n) to
// zero (docs/execution.md). Sources or collectors that do not qualify
// take the supplier/combiner path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "forkjoin/pool.hpp"
#include "observe/counters.hpp"
#include "observe/critical_path.hpp"
#include "observe/histogram.hpp"
#include "observe/trace.hpp"
#include "streams/collector.hpp"
#include "streams/plan.hpp"
#include "streams/sink.hpp"
#include "streams/sized_sink.hpp"
#include "streams/spliterator.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace pls::streams {

// ExecutionConfig and every admission predicate (fusion, DPS, grain,
// drive, kernel) live in streams/plan.hpp — the planner. This file is
// the execution layer: it obeys plans, it does not make decisions.

/// Terminal-operation descriptors for the unified evaluate() dispatch:
/// one value type per terminal kind, holding the operation by reference
/// (descriptors live only for the duration of the evaluate call). Both the
/// dynamic Stream terminals and the typed static pipeline
/// (streams/static_fusion.hpp) funnel through these, so supplier/combiner
/// and destination-passing routing exists exactly once.
namespace terminals {

template <typename C>
struct Collect {
  const C& collector;
};

template <typename Op>
struct Reduce {
  const Op& op;
};

template <typename Fn>
struct ForEach {
  const Fn& fn;
};

struct Count {};

// Short-circuit terminals: the cancellation signal lives in the terminal
// sink itself, so plans drive these element-mode regardless of the stage
// chain (DriveMode::kElementLoop), pulling no source element past the
// one that decides the answer.

template <typename Pred>
struct AnyMatch {
  const Pred& pred;
};

template <typename Pred>
struct AllMatch {
  const Pred& pred;
};

template <typename Pred>
struct NoneMatch {
  const Pred& pred;
};

struct FindFirst {};

template <typename C>
constexpr Collect<C> collect(const C& c) {
  return {c};
}
template <typename Op>
constexpr Reduce<Op> reduce(const Op& op) {
  return {op};
}
template <typename Fn>
constexpr ForEach<Fn> for_each(const Fn& fn) {
  return {fn};
}
constexpr Count count() { return {}; }
template <typename Pred>
constexpr AnyMatch<Pred> any_match(const Pred& pred) {
  return {pred};
}
template <typename Pred>
constexpr AllMatch<Pred> all_match(const Pred& pred) {
  return {pred};
}
template <typename Pred>
constexpr NoneMatch<Pred> none_match(const Pred& pred) {
  return {pred};
}
constexpr FindFirst find_first() { return {}; }

}  // namespace terminals

namespace detail {

// ---- terminal sinks --------------------------------------------------

/// Terminal sink feeding a classic collector's accumulator. Templated on
/// the concrete collector so final collectors devirtualise in the chunk
/// loop; collectors exposing a chunk fold (ChunkAccumulatingCollector —
/// the SIMD kernel hook) get whole contiguous chunks instead of the
/// per-element loop.
template <typename T, typename C>
class CollectorSink final : public Sink<T> {
 public:
  CollectorSink(const C& c, typename C::accumulation_type& acc)
      : c_(c), acc_(acc) {}

  void accept(const T& value) override { c_.accumulate(acc_, value); }

  void accept_chunk(const T* values, std::size_t n) override {
    if constexpr (ChunkAccumulatingCollector<C, T>) {
      c_.accumulate_chunk(acc_, values, n);
    } else {
      for (std::size_t i = 0; i < n; ++i) c_.accumulate(acc_, values[i]);
    }
  }

 private:
  const C& c_;
  typename C::accumulation_type& acc_;
};

/// Terminal sink of the destination-passing collect: writes element k of
/// this leaf to final position base + k * step of the shared sized sink.
template <typename T, typename C>
class DpsSink final : public Sink<T> {
 public:
  DpsSink(const C& c, typename C::sized_accumulation_type& sink,
          std::uint64_t base, std::uint64_t step)
      : c_(c), sink_(sink), base_(base), step_(step) {}

  void accept(const T& value) override {
    c_.accumulate_at(sink_, base_ + k_ * step_, value);
    ++k_;
  }

  void accept_chunk(const T* values, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) {
      c_.accumulate_at(sink_, base_ + k_ * step_, values[i]);
      ++k_;
    }
  }

  std::uint64_t written() const noexcept { return k_; }

 private:
  const C& c_;
  typename C::sized_accumulation_type& sink_;
  std::uint64_t base_;
  std::uint64_t step_;
  std::uint64_t k_ = 0;
};

template <typename T, typename Op>
class ReduceSink final : public Sink<T> {
 public:
  ReduceSink(const Op& op, std::optional<T>& acc) : op_(op), acc_(acc) {}

  void accept(const T& value) override {
    if (acc_.has_value()) {
      *acc_ = op_(std::move(*acc_), value);
    } else {
      acc_ = value;
    }
  }

  // The fold runs on a local, so the running value stays in a register
  // between calls of an opaque op instead of a store and reload through
  // acc_ per element.
  void accept_chunk(const T* values, std::size_t n) override {
    if (n == 0) return;
    std::size_t i = 0;
    if (!acc_.has_value()) acc_ = values[i++];
    T acc = std::move(*acc_);
    for (; i < n; ++i) acc = op_(std::move(acc), values[i]);
    *acc_ = std::move(acc);
  }

 private:
  const Op& op_;
  std::optional<T>& acc_;
};

template <typename T, typename Fn>
class ForEachSink final : public Sink<T> {
 public:
  explicit ForEachSink(const Fn& fn) : fn_(fn) {}

  void accept(const T& value) override { fn_(value); }

  void accept_chunk(const T* values, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) fn_(values[i]);
  }

 private:
  const Fn& fn_;
};

template <typename T>
class CountSink final : public Sink<T> {
 public:
  void accept(const T&) override { ++n_; }
  void accept_chunk(const T*, std::size_t n) override { n_ += n; }
  std::uint64_t count() const noexcept { return n_; }

 private:
  std::uint64_t n_ = 0;
};

// Cancelling terminal sinks of the short-circuit terminals. Each raises
// cancellation_requested() the moment its answer is decided; the
// element-mode driver (FusedPipeline::drive_short_circuit) checks it
// between source elements, so no source element past the deciding one is
// consumed. Each counts the elements it accepted, which its leaf reports.

template <typename T>
class ShortCircuitSink : public Sink<T> {
 public:
  std::uint64_t accepted() const noexcept { return accepted_; }

 protected:
  std::uint64_t accepted_ = 0;
};

template <typename T, typename Pred>
class AnyMatchSink final : public ShortCircuitSink<T> {
 public:
  AnyMatchSink(const Pred& pred, bool& found) : pred_(pred), found_(found) {}

  void accept(const T& value) override {
    ++this->accepted_;
    if (!found_ && pred_(value)) found_ = true;
  }
  bool cancellation_requested() const override { return found_; }

 private:
  const Pred& pred_;
  bool& found_;
};

template <typename T>
class FindFirstSink final : public ShortCircuitSink<T> {
 public:
  explicit FindFirstSink(std::optional<T>& out) : out_(out) {}

  void accept(const T& value) override {
    ++this->accepted_;
    if (!out_.has_value()) out_ = value;
  }
  bool cancellation_requested() const override { return out_.has_value(); }

 private:
  std::optional<T>& out_;
};

/// Drive a short-circuit terminal sink over a fused pipeline. Always one
/// element-mode leaf on the calling thread — encounter-order semantics —
/// reporting the elements the sink accepted.
template <typename T>
void fused_short_circuit_drive(FusedPipeline& fp,
                               ShortCircuitSink<T>& sink) {
  observed_leaf([&] { return sink.accepted(); }, nullptr, [&] {
    observe::local_counters().on_fused_leaf();
    fp.drive_short_circuit(sink);
  });
}

// ---- leaves ----------------------------------------------------------

/// Every leaf of the split-tree walk: drive `sink` (a terminal sink of the
/// pipeline's output type) through `fp` under observed_leaf — accumulate
/// span, leaf timer, critical-path phase, leaf counters — plus the fused
/// tally. The leaf reports the element count the pipeline promises
/// (countable_estimate), or the one `length` returns once the drive is
/// done.
template <typename SinkT, typename Length>
void fused_leaf(FusedPipeline& fp, observe::CpNode* cp, SinkT& sink,
                Length length) {
  observed_leaf(length, cp, [&] {
    observe::local_counters().on_fused_leaf();
    fp.drive(sink);
  });
}

template <typename SinkT>
void fused_leaf(FusedPipeline& fp, observe::CpNode* cp, SinkT& sink) {
  fused_leaf(fp, cp, sink, fp.countable_estimate());
}

template <typename T, typename C>
typename C::accumulation_type fused_collect_leaf(
    FusedPipeline& fp, const C& c, observe::CpNode* cp = nullptr) {
  auto acc = c.supply();
  observe::local_counters().on_allocation();
  CollectorSink<T, C> sink(c, acc);
  fused_leaf(fp, cp, sink);
  return acc;
}

template <typename T, typename C>
  requires SizedSinkCollector<C, T>
void fused_collect_into_leaf(FusedPipeline& fp, const C& c,
                             typename C::sized_accumulation_type& sink,
                             const OutputWindow& root,
                             observe::CpNode* cp = nullptr) {
  const auto w = fp.source_window();
  PLS_CHECK(w.has_value(),
            "windowed fused source split into a non-windowed chunk");
  // Rebase this chunk's window against the root's: the source may itself
  // be a strided sub-window (e.g. a zip-split product), but the result
  // buffer is indexed 0..root.count in root strides.
  const std::uint64_t base = (w->start - root.start) / root.incr;
  const std::uint64_t step = w->incr / root.incr;
  PLS_CHECK(w->count == 0 || base + (w->count - 1) * step < root.count,
            "destination window exceeds the result buffer");
  DpsSink<T, C> s(c, sink, base, step);
  fused_leaf(fp, cp, s);
  PLS_CHECK(s.written() == w->count,
            "fused chunk yielded a different count than its window");
}

template <typename T, typename Op>
std::optional<T> fused_reduce_leaf(FusedPipeline& fp, const Op& op,
                                   observe::CpNode* cp = nullptr) {
  std::optional<T> acc;
  ReduceSink<T, Op> sink(op, acc);
  fused_leaf(fp, cp, sink);
  return acc;
}

template <typename T, typename Fn>
void fused_for_each_leaf(FusedPipeline& fp, const Fn& fn,
                         observe::CpNode* cp = nullptr) {
  ForEachSink<T, Fn> sink(fn);
  fused_leaf(fp, cp, sink);
}

/// Count reports the exact number it counted, not the estimate.
template <typename T>
std::uint64_t fused_count_leaf(FusedPipeline& fp,
                               observe::CpNode* cp = nullptr) {
  CountSink<T> sink;
  fused_leaf(fp, cp, sink, [&] { return sink.count(); });
  return sink.count();
}

// ---- driving the walk ------------------------------------------------

/// The parts of one pipeline split, in encounter order: the prefixes the
/// split carved off, then the split pipeline itself. A binary split holds
/// its one prefix without a vector.
struct PipelineParts {
  std::vector<std::unique_ptr<FusedPipeline>> prefixes;
  std::unique_ptr<FusedPipeline> prefix;
  FusedPipeline* rest = nullptr;

  std::size_t size() const { return prefix ? 2 : prefixes.size() + 1; }
  FusedPipeline* operator[](std::size_t k) const {
    if (prefix) return k == 0 ? prefix.get() : rest;
    return k < prefixes.size() ? prefixes[k].get() : rest;
  }
};

/// Split `fp` unless it holds at most `target` elements or refuses. Above
/// arity 2 ask for `arity` parts (try_split_n) and fall back to the binary
/// try_split when the source refuses.
inline std::optional<PipelineParts> split_pipeline(FusedPipeline* fp,
                                                   std::uint64_t target,
                                                   unsigned arity) {
  if (fp->estimate_size() <= target) return std::nullopt;
  PipelineParts parts;
  if (arity > 2) parts.prefixes = fp->try_split_n(arity);
  if (parts.prefixes.empty()) parts.prefix = fp->try_split();
  if (parts.prefixes.empty() && !parts.prefix) return std::nullopt;
  parts.rest = fp;
  return parts;
}

/// Fold results [first, first + n) of one split pairwise and balanced —
/// each half first, then the pair — with `combine(left, right, depth, cp)`.
/// Two parts take exactly one combine; n parts take n-1, associated as a
/// balanced tree, which the collector associativity law makes equal to a
/// left fold.
template <typename Results, typename Combine>
auto fold_balanced(Results& results, std::size_t first, std::size_t n,
                   const Combine& combine, unsigned depth, observe::CpNode* cp)
    -> std::remove_cvref_t<decltype(results[first])> {
  if (n == 1) return std::move(results[first]);
  const std::size_t mid = n / 2;
  auto left = fold_balanced(results, first, mid, combine, depth, cp);
  auto right = fold_balanced(results, first + mid, n - mid, combine, depth, cp);
  return combine(std::move(left), std::move(right), depth, cp);
}

/// Run `leaf` over the whole pipeline as the plan says: one leaf on the
/// calling thread when sequential, otherwise split_walk (streams/plan.hpp)
/// at the plan's grain and arity inside the pool, feeding the profiled run
/// back to the PlanCache. Sibling results fold with
/// `combine(left, right, depth, cp)`, left being the encounter-order
/// prefix; leaves returning void take no combine.
template <typename Leaf, typename Combine = std::nullptr_t>
auto drive_plan(FusedPipeline& fp, bool parallel, const ExecutionConfig& cfg,
                const ExecutionPlan& plan, const Leaf& leaf,
                const Combine& combine = nullptr) {
  if (!parallel) return leaf(fp, nullptr);
  auto& pool = cfg.effective_pool();
  observe::CpNode* cp = observe::cp_new_root();
  const auto walk = [&] {
    return split_walk(
        &pool, &fp, 0, cp,
        [&](FusedPipeline* node) {
          return split_pipeline(node, plan.grain, plan.arity);
        },
        [&](FusedPipeline* node, observe::CpNode* at) {
          return leaf(*node, at);
        },
        [&](FusedPipeline*, auto& results, unsigned depth,
            observe::CpNode* at) {
          return fold_balanced(results, 0, results.size(), combine, depth,
                               at);
        });
  };
  if constexpr (std::is_void_v<decltype(leaf(fp, cp))>) {
    pool.run(walk);
    plan_feedback(plan, cp);
  } else {
    auto out = pool.run(walk);
    plan_feedback(plan, cp);
    return out;
  }
}

// ---- terminal dispatch -----------------------------------------------
//
// One run_fused overload per terminal descriptor; T is the pipeline's
// output element type. Each obeys the plan evaluate() computed (DPS
// verdict, resolved grain).

template <typename T, typename C>
typename C::result_type run_fused(FusedPipeline& fused,
                                  const terminals::Collect<C>& term,
                                  bool parallel, const ExecutionConfig& cfg,
                                  const ExecutionPlan& plan) {
  const C& c = term.collector;
  if constexpr (SizedSinkCollector<C, T>) {
    if (plan.dps) {
      const OutputWindow root = *plan.window;
      auto sink = c.supply_sized(root.count);
      drive_plan(
          fused, parallel, cfg, plan,
          [&](FusedPipeline& fp, observe::CpNode* cp) {
            fused_collect_into_leaf<T>(fp, c, sink, root, cp);
          });
      return c.finish_sized(std::move(sink));
    }
  }
  using A = typename C::accumulation_type;
  auto acc = drive_plan(
      fused, parallel, cfg, plan,
      [&](FusedPipeline& fp, observe::CpNode* cp) {
        return fused_collect_leaf<T>(fp, c, cp);
      },
      [&](A&& left, A&& right, unsigned depth, observe::CpNode* cp) {
        observed_combine(depth, cp, [&] { c.combine(left, right); });
        return std::move(left);
      });
  return c.finish(std::move(acc));
}

template <typename T, typename Op>
std::optional<T> run_fused(FusedPipeline& fused,
                           const terminals::Reduce<Op>& term, bool parallel,
                           const ExecutionConfig& cfg,
                           const ExecutionPlan& plan) {
  const Op& op = term.op;
  return drive_plan(
      fused, parallel, cfg, plan,
      [&](FusedPipeline& fp, observe::CpNode* cp) {
        return fused_reduce_leaf<T>(fp, op, cp);
      },
      [&](std::optional<T>&& left, std::optional<T>&& right, unsigned depth,
          observe::CpNode* cp) -> std::optional<T> {
        if (!left.has_value()) return std::move(right);
        if (!right.has_value()) return std::move(left);
        return observed_combine(depth, cp, [&] {
          return std::optional<T>(op(std::move(*left), std::move(*right)));
        });
      });
}

template <typename T, typename Fn>
void run_fused(FusedPipeline& fused, const terminals::ForEach<Fn>& term,
               bool parallel, const ExecutionConfig& cfg,
               const ExecutionPlan& plan) {
  drive_plan(
      fused, parallel, cfg, plan,
      [&](FusedPipeline& fp, observe::CpNode* cp) {
        fused_for_each_leaf<T>(fp, term.fn, cp);
      });
}

template <typename T>
std::uint64_t run_fused(FusedPipeline& fused, const terminals::Count&,
                        bool parallel, const ExecutionConfig& cfg,
                        const ExecutionPlan& plan) {
  return drive_plan(
      fused, parallel, cfg, plan,
      [](FusedPipeline& fp, observe::CpNode* cp) {
        return fused_count_leaf<T>(fp, cp);
      },
      [](std::uint64_t left, std::uint64_t right, unsigned,
         observe::CpNode*) { return left + right; });
}

// Short-circuit terminals run one element-mode leaf whatever the parallel
// flag says (the plan records DriveMode::kElementLoop): splitting could
// find *a* match but not the encounter-order-first one.

template <typename T, typename Pred>
bool run_fused(FusedPipeline& fused, const terminals::AnyMatch<Pred>& term,
               bool /*parallel*/, const ExecutionConfig& /*cfg*/,
               const ExecutionPlan& /*plan*/) {
  bool found = false;
  AnyMatchSink<T, Pred> sink(term.pred, found);
  fused_short_circuit_drive<T>(fused, sink);
  return found;
}

template <typename T, typename Pred>
bool run_fused(FusedPipeline& fused, const terminals::AllMatch<Pred>& term,
               bool /*parallel*/, const ExecutionConfig& /*cfg*/,
               const ExecutionPlan& /*plan*/) {
  // All match exactly when no element fails the predicate.
  const auto fails = [&](const T& v) { return !term.pred(v); };
  bool failed = false;
  AnyMatchSink<T, decltype(fails)> sink(fails, failed);
  fused_short_circuit_drive<T>(fused, sink);
  return !failed;
}

template <typename T, typename Pred>
bool run_fused(FusedPipeline& fused, const terminals::NoneMatch<Pred>& term,
               bool /*parallel*/, const ExecutionConfig& /*cfg*/,
               const ExecutionPlan& /*plan*/) {
  bool found = false;
  AnyMatchSink<T, Pred> sink(term.pred, found);
  fused_short_circuit_drive<T>(fused, sink);
  return !found;
}

template <typename T>
std::optional<T> run_fused(FusedPipeline& fused, const terminals::FindFirst&,
                           bool /*parallel*/, const ExecutionConfig& /*cfg*/,
                           const ExecutionPlan& /*plan*/) {
  std::optional<T> out;
  FindFirstSink<T> sink(out);
  fused_short_circuit_drive<T>(fused, sink);
  return out;
}

}  // namespace detail

// ---- unified pipeline terminal dispatch ------------------------------
//
// Terminals hand their pipeline here together with a terminals::
// descriptor naming the operation. evaluate() asks the planner
// (streams/plan.hpp) for an ExecutionPlan, records it for
// pls::session::explain(), and then merely obeys it.

namespace detail {

// Compile-time facts about a terminal descriptor that the planner needs:
// which terminal it is, and (for collect) whether the collector supports
// the sized-sink protocol and chunk accumulation.

template <typename T, typename Term>
struct TerminalTraits;

template <typename T, typename C>
struct TerminalTraits<T, terminals::Collect<C>> {
  static constexpr TerminalKind kind = TerminalKind::kCollect;
  static constexpr bool sized_collector = SizedSinkCollector<C, T>;
  static constexpr bool chunk_collector = ChunkAccumulatingCollector<C, T>;
};

template <typename T, typename Op>
struct TerminalTraits<T, terminals::Reduce<Op>> {
  static constexpr TerminalKind kind = TerminalKind::kReduce;
  static constexpr bool sized_collector = false;
  static constexpr bool chunk_collector = false;
};

template <typename T, typename Fn>
struct TerminalTraits<T, terminals::ForEach<Fn>> {
  static constexpr TerminalKind kind = TerminalKind::kForEach;
  static constexpr bool sized_collector = false;
  static constexpr bool chunk_collector = false;
};

template <typename T>
struct TerminalTraits<T, terminals::Count> {
  static constexpr TerminalKind kind = TerminalKind::kCount;
  static constexpr bool sized_collector = false;
  static constexpr bool chunk_collector = false;
};

template <typename T, typename Pred>
struct TerminalTraits<T, terminals::AnyMatch<Pred>> {
  static constexpr TerminalKind kind = TerminalKind::kAnyMatch;
  static constexpr bool sized_collector = false;
  static constexpr bool chunk_collector = false;
};

template <typename T, typename Pred>
struct TerminalTraits<T, terminals::AllMatch<Pred>> {
  static constexpr TerminalKind kind = TerminalKind::kAllMatch;
  static constexpr bool sized_collector = false;
  static constexpr bool chunk_collector = false;
};

template <typename T, typename Pred>
struct TerminalTraits<T, terminals::NoneMatch<Pred>> {
  static constexpr TerminalKind kind = TerminalKind::kNoneMatch;
  static constexpr bool sized_collector = false;
  static constexpr bool chunk_collector = false;
};

template <typename T>
struct TerminalTraits<T, terminals::FindFirst> {
  static constexpr TerminalKind kind = TerminalKind::kFindFirst;
  static constexpr bool sized_collector = false;
  static constexpr bool chunk_collector = false;
};

}  // namespace detail

/// THE terminal entry point: plan a terminal over pipeline `fp`, whose
/// output element type is T (plan_fused_pipeline decides DPS, grain,
/// drive and kernel in one place), record the plan for
/// pls::session::explain(), and run on its verdicts. Stream and
/// StaticPipeline terminals arrive here with their pipeline; the multiway
/// collect passes the `arity` its splits ask for
/// (plist/multiway_spliterator.hpp).
template <typename T, typename Term>
auto evaluate(FusedPipeline& fp, const Term& term, bool parallel,
              const ExecutionConfig& cfg = {},
              PlanOrigin origin = PlanOrigin::kDynamic, unsigned arity = 2) {
  PLS_CHECK(fp.output_type() == typeid(T),
            "pipeline output type does not match the terminal");
  using Traits = detail::TerminalTraits<T, Term>;
  ExecutionPlan plan =
      plan_fused_pipeline(fp, Traits::kind, Traits::sized_collector,
                          Traits::chunk_collector, parallel, cfg, origin);
  plan.arity = arity;
  record_plan(plan);
  // Declared before the dispatch: its destructor fires once the
  // terminal's result is materialized, appending one RunRecord covering
  // the full run.
  RunScope run_scope(plan);
  return detail::run_fused<T>(fp, term, parallel, cfg, plan);
}

}  // namespace pls::streams
