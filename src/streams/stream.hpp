// Stream<T>: the lazy pipeline facade (mirrors java.util.stream.Stream).
//
// A Stream owns its fused pipeline — a source spliterator plus the chain
// of stage descriptors its intermediate operations appended
// (streams/fusion.hpp) — and execution settings (sequential vs. parallel,
// pool, chunk target). Each intermediate operation appends one StageNode
// (map/filter/peek/flat_map a one-op StaticChainStage,
// streams/chain_stage.hpp) and returns the stream of the new element
// type; terminal operations plan and drive the pipeline — a Stream, like
// Java's, is single-use.
//
// Parallelism is requested exactly as in the paper's snippets: create the
// stream from a spliterator with `parallel = true`
// (stream_support::from_spliterator, the analogue of StreamSupport.stream)
// or toggle with .parallel()/.sequential().
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <tuple>
#include <type_traits>
#include <vector>

#include "streams/chain_stage.hpp"
#include "streams/collector.hpp"
#include "streams/fusion.hpp"
#include "streams/parallel_eval.hpp"
#include "streams/spliterator.hpp"
#include "streams/spliterators.hpp"
#include "support/assert.hpp"

namespace pls::streams {

namespace detail {

/// sorted's barrier source: buffers the whole upstream at first need,
/// sorts it, and then behaves as an array spliterator over the buffer —
/// Java's full-barrier stateful op. Every observation (the planner's
/// size and window probes included) materialises first, so the planner
/// sees the same exactly-sized, windowed shape the drive will.
template <typename T, typename Cmp>
class SortedSpliterator final : public Spliterator<T>, public WindowedSource {
 public:
  using Action = typename Spliterator<T>::Action;

  SortedSpliterator(std::unique_ptr<Spliterator<T>> upstream, Cmp cmp)
      : upstream_(std::move(upstream)), cmp_(std::move(cmp)) {
    PLS_CHECK(upstream_ != nullptr, "SortedSpliterator requires upstream");
  }

  bool try_advance(Action action) override {
    return buffered().try_advance(action);
  }
  void for_each_remaining(Action action) override {
    buffered().for_each_remaining(action);
  }
  std::pair<const T*, std::size_t> try_chunk(T* scratch,
                                             std::size_t max_n) override {
    return buffered().try_chunk(scratch, max_n);
  }
  std::unique_ptr<Spliterator<T>> try_split() override {
    return buffered().try_split();
  }
  std::uint64_t estimate_size() const override {
    return buffered().estimate_size();
  }
  Characteristics characteristics() const override {
    return buffered().characteristics() | kSorted;
  }
  std::optional<OutputWindow> try_output_window() const override {
    return buffered().try_output_window();
  }

 private:
  // Logically const: every observation goes through the buffer, so
  // materialising it early never changes what callers see.
  ArraySpliterator<T>& buffered() const {
    if (!inner_) {
      auto values = std::make_shared<std::vector<T>>();
      upstream_->for_each_remaining(
          [&](const T& v) { values->push_back(v); });
      std::sort(values->begin(), values->end(), cmp_);
      inner_ = std::make_unique<ArraySpliterator<T>>(
          std::shared_ptr<const std::vector<T>>(std::move(values)));
      upstream_.reset();
    }
    return *inner_;
  }

  mutable std::unique_ptr<Spliterator<T>> upstream_;
  Cmp cmp_;
  mutable std::unique_ptr<ArraySpliterator<T>> inner_;
};

}  // namespace detail

template <typename T>
class Stream {
 public:
  /// Adopt a spliterator (the analogue of StreamSupport.stream).
  Stream(std::unique_ptr<Spliterator<T>> source, bool parallel)
      : parallel_(parallel) {
    PLS_CHECK(source != nullptr, "Stream requires a source spliterator");
    pipeline_ = fuse_source(std::move(source));
  }

  // ---- factories ----------------------------------------------------

  /// Stream over a copy (or move) of a vector.
  static Stream<T> of(std::vector<T> values) {
    auto shared =
        std::make_shared<const std::vector<T>>(std::move(values));
    return Stream<T>(std::make_unique<ArraySpliterator<T>>(shared), false);
  }

  /// Stream over shared storage (no copy).
  static Stream<T> of_shared(std::shared_ptr<const std::vector<T>> values) {
    return Stream<T>(std::make_unique<ArraySpliterator<T>>(std::move(values)),
                     false);
  }

  /// Integer range [begin, end).
  static Stream<T> range(T begin, T end) {
    static_assert(std::is_integral_v<T>, "range requires an integer type");
    return Stream<T>(std::make_unique<RangeSpliterator<T>>(begin, end),
                     false);
  }

  /// n elements produced by fn(0), fn(1), ..., fn(n-1).
  template <typename Fn>
  static Stream<T> generate(Fn fn, std::uint64_t n) {
    auto shared = std::make_shared<const Fn>(std::move(fn));
    return Stream<T>(
        std::make_unique<GenerateSpliterator<T, Fn>>(shared, 0, n), false);
  }

  /// Infinite stream seed, next(seed), ... (Stream.iterate); bound it
  /// with .limit(n). Parallel evaluation carves array batches off the
  /// lazy tail (see streams/unsized.hpp).
  template <typename Next>
  static Stream<T> iterate(T seed, Next next);

  /// All elements of `a`, then all elements of `b` (Stream.concat). Each
  /// part joins as its pull view (into_spliterator). Execution settings
  /// are taken from `a`.
  static Stream<T> concat(Stream<T> a, Stream<T> b) {
    auto first = std::move(a).into_spliterator();
    return a.rebase(std::make_unique<ConcatSpliterator<T>>(
        std::move(first), std::move(b).into_spliterator()));
  }

  // ---- execution configuration --------------------------------------
  //
  // All execution builders are &&-qualified: a Stream is single-use and
  // the builders consume it, exactly like the intermediate operations.
  // Lvalue chaining was a foot-gun (it silently mutated a stream someone
  // else still held) and is deleted.

  Stream<T>& parallel() & = delete;
  Stream<T>&& parallel() && {
    parallel_ = true;
    return std::move(*this);
  }
  /// Parallel with an explicit execution config (pool, chunk target,
  /// sized-sink toggle), e.g. the one handed out by
  /// pls::session::stream_config().
  Stream<T>&& parallel(const ExecutionConfig& cfg) && {
    parallel_ = true;
    config_ = cfg;
    return std::move(*this);
  }
  Stream<T>& sequential() & = delete;
  Stream<T>&& sequential() && {
    parallel_ = false;
    return std::move(*this);
  }
  bool is_parallel() const noexcept { return parallel_; }

  /// Run parallel terminals on a specific pool (default: common pool).
  Stream<T>&& via(forkjoin::ForkJoinPool& pool) && {
    config_.with_pool(pool);
    return std::move(*this);
  }

  /// Set the split target: chunks of at most `n` elements.
  Stream<T>&& with_min_chunk(std::uint64_t n) && {
    config_.with_min_chunk(n);
    return std::move(*this);
  }

  /// Allow or forbid the destination-passing collect path (on by
  /// default; see docs/execution.md). Off forces every collect through
  /// the supplier/combiner reduction.
  Stream<T>&& with_sized_sink(bool enabled) && {
    config_.with_sized_sink(enabled);
    return std::move(*this);
  }

  /// Replace the whole execution configuration at once (pool, grain,
  /// sized-sink, auto-grain) — the bulk form of the with_*
  /// setters above, for callers that already hold an ExecutionConfig.
  Stream<T>&& with_config(const ExecutionConfig& cfg) && {
    config_ = cfg;
    return std::move(*this);
  }

  // ---- intermediate operations (consume the stream) ------------------

  template <typename Fn>
  auto map(Fn fn) && {
    return chain(stages::map(std::move(fn)));
  }

  template <typename Pred>
  Stream<T> filter(Pred pred) && {
    return chain(stages::filter(std::move(pred)));
  }

  template <typename Fn>
  Stream<T> peek(Fn observer) && {
    return chain(stages::peek(std::move(observer)));
  }

  template <typename Fn>
  auto flat_map(Fn fn) && {
    return chain(stages::flat_map(std::move(fn)));
  }

  /// Truncate to at most n elements. A cancelling stage: the pipeline
  /// runs as one element-mode leaf (sequential slicing semantics).
  Stream<T> limit(std::uint64_t n) && {
    return then<T>(std::make_shared<SliceStage<T>>(0, n));
  }

  /// Drop the first n elements (sequential slicing semantics, like limit).
  Stream<T> skip(std::uint64_t n) && {
    return then<T>(std::make_shared<SliceStage<T>>(
        n, std::numeric_limits<std::uint64_t>::max()));
  }

  /// Longest prefix satisfying the predicate (Java 9's takeWhile).
  /// Sequential slicing semantics, like limit.
  template <typename Pred>
  Stream<T> take_while(Pred pred) && {
    return then<T>(std::make_shared<TakeWhileStage<T, Pred>>(
        std::make_shared<const Pred>(std::move(pred))));
  }

  /// Drop the longest prefix satisfying the predicate (dropWhile). A
  /// stateful stage: the pipeline runs as one leaf.
  template <typename Pred>
  Stream<T> drop_while(Pred pred) && {
    return then<T>(std::make_shared<DropWhileStage<T, Pred>>(
        std::make_shared<const Pred>(std::move(pred))));
  }

  /// Sort the elements (a full barrier that materialises lazily, like
  /// Java's sorted()). The sorted buffer becomes the source of a new
  /// pipeline, so downstream stages still fuse over a windowed array.
  template <typename Cmp = std::less<T>>
  Stream<T> sorted(Cmp cmp = Cmp{}) && {
    return rebase(std::make_unique<detail::SortedSpliterator<T, Cmp>>(
        std::move(*this).into_spliterator(), std::move(cmp)));
  }

  /// Remove duplicates, keeping first occurrences. A stateful stage: the
  /// seen-set makes the pipeline single-leaf.
  Stream<T> distinct() && {
    return then<T>(std::make_shared<DistinctStage<T>>());
  }

  // ---- typed static pipeline -----------------------------------------

  /// Hand the stream's pipeline to a compile-time stage stack: the ops
  /// (streams/chain_stage.hpp: stages::map/filter/peek/flat_map values)
  /// become a tuple type, and terminals run the whole chain as one
  /// inlined loop per chunk with no virtual calls between stages. Defined in
  /// streams/static_fusion.hpp (include it, or pls.hpp, to use).
  template <typename... Ops>
  auto stages(Ops&&... ops) &&;

  // ---- terminal operations -------------------------------------------

  /// Mutable reduction with a Collector (the template method of the
  /// paper's adaptation).
  template <typename C>
  typename C::result_type collect(const C& collector) && {
    return evaluate<T>(*take(), terminals::collect(collector), parallel_,
                       config_);
  }

  /// Three-function collect, as in the paper's snippets:
  /// collect(supplier, accumulator, combiner).
  template <typename SupplyFn, typename AccumulateFn, typename CombineFn>
  auto collect(SupplyFn supply, AccumulateFn accumulate,
               CombineFn combine) && {
    auto c = make_collector<T>(std::move(supply), std::move(accumulate),
                               std::move(combine));
    return evaluate<T>(*take(), terminals::collect(c), parallel_, config_);
  }

  /// Reduce with an associative operator; nullopt on an empty stream.
  template <typename Op>
  std::optional<T> reduce(Op op) && {
    return evaluate<T>(*take(), terminals::reduce(op), parallel_, config_);
  }

  /// Reduce with identity; `identity` must be a true identity of `op`.
  template <typename Op>
  T reduce(T identity, Op op) && {
    auto r = evaluate<T>(*take(), terminals::reduce(op), parallel_, config_);
    return r.has_value() ? std::move(*r) : std::move(identity);
  }

  template <typename Fn>
  void for_each(Fn fn) && {
    evaluate<T>(*take(), terminals::for_each(fn), parallel_, config_);
  }

  std::uint64_t count() && {
    return evaluate<T>(*take(), terminals::count(), parallel_, config_);
  }

  std::vector<T> to_vector() && {
    return evaluate<T>(*take(), terminals::collect(VectorCollector<T>{}),
                       parallel_, config_);
  }

  template <typename Cmp = std::less<T>>
  std::optional<T> min(Cmp cmp = Cmp{}) && {
    return std::move(*this).reduce(
        [cmp](const T& a, const T& b) { return cmp(b, a) ? b : a; });
  }

  template <typename Cmp = std::less<T>>
  std::optional<T> max(Cmp cmp = Cmp{}) && {
    return std::move(*this).reduce(
        [cmp](const T& a, const T& b) { return cmp(a, b) ? b : a; });
  }

  /// Sum of elements (arithmetic T); empty stream sums to T{}.
  T sum() && {
    static_assert(std::is_arithmetic_v<T>, "sum requires arithmetic T");
    return std::move(*this).reduce(T{},
                                   [](T a, T b) { return a + b; });
  }

  /// Short-circuit search terminals (sequential encounter-order
  /// traversal). Planned like every other terminal: a cancelling terminal
  /// sink runs through the element-mode push loop
  /// (DriveMode::kElementLoop), pulling no source element past the one
  /// that decides the answer.
  template <typename Pred>
  bool any_match(Pred pred) && {
    return evaluate<T>(*take(), terminals::any_match(pred), parallel_,
                       config_);
  }

  /// Direct cancelling sink — not a negated any_match, so no negated
  /// predicate wrapper is evaluated per element.
  template <typename Pred>
  bool all_match(Pred pred) && {
    return evaluate<T>(*take(), terminals::all_match(pred), parallel_,
                       config_);
  }

  template <typename Pred>
  bool none_match(Pred pred) && {
    return evaluate<T>(*take(), terminals::none_match(pred), parallel_,
                       config_);
  }

  std::optional<T> find_first() && {
    return evaluate<T>(*take(), terminals::find_first(), parallel_, config_);
  }

  /// The stream as a Spliterator (Java's BaseStream.spliterator(), a
  /// terminal operation): a stage-free stream hands back its source, any
  /// other the pull adapter over its pipeline.
  std::unique_ptr<Spliterator<T>> into_spliterator() && {
    return streams::into_spliterator<T>(take());
  }

  // ---- introspection --------------------------------------------------

  /// The pipeline the terminal will plan and drive: its source (e.g. to
  /// check the POWER2 characteristic before applying a PowerList
  /// function, as the paper's snippet does) and its stage chain.
  const FusedPipeline& pipeline() const {
    PLS_CHECK(pipeline_ != nullptr, "stream already consumed");
    return *pipeline_;
  }

  Characteristics characteristics() const {
    return pipeline().characteristics();
  }

  std::uint64_t estimate_size() const { return pipeline().output_estimate(); }

 private:
  Stream(std::unique_ptr<FusedPipeline> pipeline, bool parallel,
         const ExecutionConfig& config)
      : pipeline_(std::move(pipeline)), parallel_(parallel), config_(config) {}

  /// Move the pipeline out for a terminal or a new stream; a Stream is
  /// single-use.
  std::unique_ptr<FusedPipeline> take() {
    PLS_CHECK(pipeline_ != nullptr, "stream already consumed");
    return std::move(pipeline_);
  }

  /// Append `stage` and hand the pipeline, now of element type U, to a
  /// new stream with these settings.
  template <typename U>
  Stream<U> then(std::shared_ptr<const StageNode> stage) {
    auto fp = take();
    fp->append_stage(std::move(stage));
    return Stream<U>(std::move(fp), parallel_, config_);
  }

  /// Append the one-op chain stage of a stateless op (map, filter, peek,
  /// flat_map; streams/chain_stage.hpp).
  template <typename Op>
  Stream<chain_output_t<T, Op>> chain(Op op) {
    return then<chain_output_t<T, Op>>(
        std::make_shared<StaticChainStage<T, Op>>(
            std::make_shared<const std::tuple<Op>>(std::move(op))));
  }

  /// A stream with these settings over a fresh source.
  Stream<T> rebase(std::unique_ptr<Spliterator<T>> source) const {
    return Stream<T>(fuse_source(std::move(source)), parallel_, config_);
  }

  template <typename U>
  friend class Stream;

  // The typed static pipeline adopts a stream's pipeline and settings
  // (streams/static_fusion.hpp).
  template <typename S, typename... Ops>
  friend class StaticPipeline;

  std::unique_ptr<FusedPipeline> pipeline_;
  bool parallel_ = false;
  ExecutionConfig config_{};
};

namespace stream_support {

/// The analogue of StreamSupport.stream(spliterator, parallel).
template <typename T>
Stream<T> from_spliterator(std::unique_ptr<Spliterator<T>> sp,
                           bool parallel) {
  return Stream<T>(std::move(sp), parallel);
}

}  // namespace stream_support

}  // namespace pls::streams

#include "streams/unsized.hpp"

namespace pls::streams {

template <typename T>
template <typename Next>
Stream<T> Stream<T>::iterate(T seed, Next next) {
  return Stream<T>(iterate_stream(std::move(seed), std::move(next)), false);
}

}  // namespace pls::streams
