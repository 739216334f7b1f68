// Stream<T>: the lazy pipeline facade (mirrors java.util.stream.Stream).
//
// A Stream owns a source spliterator plus execution settings (sequential
// vs. parallel, pool, chunk target). Intermediate operations wrap the
// spliterator and return a new Stream; terminal operations traverse it —
// a Stream, like Java's, is single-use.
//
// Parallelism is requested exactly as in the paper's snippets: create the
// stream from a spliterator with `parallel = true`
// (stream_support::from_spliterator, the analogue of StreamSupport.stream)
// or toggle with .parallel()/.sequential().
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "streams/collector.hpp"
#include "streams/fusion.hpp"
#include "streams/parallel_eval.hpp"
#include "streams/pipeline_spliterators.hpp"
#include "streams/spliterator.hpp"
#include "streams/spliterators.hpp"
#include "support/assert.hpp"

namespace pls::streams {

namespace detail {

/// skip/limit wrapper. Sequential by design: it refuses to split (slicing
/// a parallel pipeline deterministically requires encounter-order
/// bookkeeping that Java, too, pays a heavy price for).
template <typename T>
class SliceSpliterator final : public Spliterator<T>, public FusableStage {
 public:
  using Action = typename Spliterator<T>::Action;

  SliceSpliterator(std::unique_ptr<Spliterator<T>> upstream,
                   std::uint64_t skip, std::uint64_t limit)
      : upstream_(std::move(upstream)), skip_(skip), limit_(limit) {}

  bool try_advance(Action action) override {
    while (skip_ > 0) {
      if (!upstream_->try_advance([](const T&) {})) return false;
      --skip_;
    }
    if (limit_ == 0) return false;
    if (!upstream_->try_advance(action)) return false;
    --limit_;
    return true;
  }

  std::unique_ptr<Spliterator<T>> try_split() override { return nullptr; }

  std::uint64_t estimate_size() const override {
    const std::uint64_t upstream = upstream_->estimate_size();
    const std::uint64_t after_skip =
        upstream > skip_ ? upstream - skip_ : 0;
    return after_skip < limit_ ? after_skip : limit_;
  }

  Characteristics characteristics() const override {
    return upstream_->characteristics() & ~(kSubsized | kPower2);
  }

  std::unique_ptr<FusedPipeline> strip_into_fused() override {
    auto fused = fuse_pipeline<T>(upstream_);
    fused->append_stage(std::make_shared<SliceStage<T>>(skip_, limit_));
    return fused;
  }

 private:
  std::unique_ptr<Spliterator<T>> upstream_;
  std::uint64_t skip_;
  std::uint64_t limit_;
};

/// takeWhile wrapper: emits elements until the predicate first fails.
/// Sequential (refuses to split), as ordered prefix semantics demand.
template <typename T, typename Pred>
class TakeWhileSpliterator final : public Spliterator<T>,
                                   public FusableStage {
 public:
  using Action = typename Spliterator<T>::Action;

  TakeWhileSpliterator(std::unique_ptr<Spliterator<T>> upstream, Pred pred)
      : upstream_(std::move(upstream)), pred_(std::move(pred)) {}

  bool try_advance(Action action) override {
    if (done_) return false;
    bool delivered = false;
    const bool advanced = upstream_->try_advance([&](const T& v) {
      if (pred_(v)) {
        action(v);
        delivered = true;
      } else {
        done_ = true;
      }
    });
    if (!advanced) done_ = true;
    return delivered;
  }

  std::unique_ptr<Spliterator<T>> try_split() override { return nullptr; }

  std::uint64_t estimate_size() const override {
    return done_ ? 0 : upstream_->estimate_size();
  }

  Characteristics characteristics() const override {
    return upstream_->characteristics() &
           ~(kSized | kSubsized | kPower2);
  }

  std::unique_ptr<FusedPipeline> strip_into_fused() override {
    auto fused = fuse_pipeline<T>(upstream_);
    fused->append_stage(std::make_shared<TakeWhileStage<T, Pred>>(
        std::make_shared<const Pred>(pred_)));
    return fused;
  }

 private:
  std::unique_ptr<Spliterator<T>> upstream_;
  Pred pred_;
  bool done_ = false;
};

/// dropWhile wrapper: skips the failing-prefix, then passes through. Not
/// a FusableStage: at a terminal it becomes the fused pipeline's source,
/// and the stages above it fuse.
template <typename T, typename Pred>
class DropWhileSpliterator final : public Spliterator<T> {
 public:
  using Action = typename Spliterator<T>::Action;

  DropWhileSpliterator(std::unique_ptr<Spliterator<T>> upstream, Pred pred)
      : upstream_(std::move(upstream)), pred_(std::move(pred)) {}

  bool try_advance(Action action) override {
    while (dropping_) {
      bool kept = false;
      const bool advanced = upstream_->try_advance([&](const T& v) {
        if (!pred_(v)) {
          dropping_ = false;
          action(v);
          kept = true;
        }
      });
      if (!advanced) {
        dropping_ = false;
        return false;
      }
      if (kept) return true;
    }
    return upstream_->try_advance(action);
  }

  void for_each_remaining(Action action) override {
    if (!dropping_) {
      upstream_->for_each_remaining(action);
      return;
    }
    Spliterator<T>::for_each_remaining(action);
  }

  std::unique_ptr<Spliterator<T>> try_split() override { return nullptr; }

  std::uint64_t estimate_size() const override {
    return upstream_->estimate_size();
  }

  Characteristics characteristics() const override {
    return upstream_->characteristics() &
           ~(kSized | kSubsized | kPower2);
  }

 private:
  std::unique_ptr<Spliterator<T>> upstream_;
  Pred pred_;
  bool dropping_ = true;
};

}  // namespace detail

template <typename T>
class Stream {
 public:
  /// Adopt a spliterator (the analogue of StreamSupport.stream).
  Stream(std::unique_ptr<Spliterator<T>> source, bool parallel)
      : source_(std::move(source)), parallel_(parallel) {
    PLS_CHECK(source_ != nullptr, "Stream requires a source spliterator");
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

  /// All elements of `a`, then all elements of `b` (Stream.concat).
  /// Execution settings are taken from `a`.
  static Stream<T> concat(Stream<T> a, Stream<T> b) {
    Stream<T> out(std::make_unique<ConcatSpliterator<T>>(
                      std::move(a.source_), std::move(b.source_)),
                  a.parallel_);
    out.config_ = a.config_;
    return out;
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
    using U = std::remove_cvref_t<std::invoke_result_t<Fn&, const T&>>;
    auto shared = std::make_shared<const Fn>(std::move(fn));
    return rewrap<U>(std::make_unique<MapSpliterator<U, T, Fn>>(
        std::move(source_), shared));
  }

  template <typename Pred>
  Stream<T> filter(Pred pred) && {
    auto shared = std::make_shared<const Pred>(std::move(pred));
    return rewrap<T>(std::make_unique<FilterSpliterator<T, Pred>>(
        std::move(source_), shared));
  }

  template <typename Fn>
  Stream<T> peek(Fn observer) && {
    auto shared = std::make_shared<const Fn>(std::move(observer));
    return rewrap<T>(std::make_unique<PeekSpliterator<T, Fn>>(
        std::move(source_), shared));
  }

  template <typename Fn>
  auto flat_map(Fn fn) && {
    using Vec = std::remove_cvref_t<std::invoke_result_t<Fn&, const T&>>;
    using U = typename Vec::value_type;
    auto shared = std::make_shared<const Fn>(std::move(fn));
    return rewrap<U>(std::make_unique<FlatMapSpliterator<U, T, Fn>>(
        std::move(source_), shared));
  }

  /// Truncate to at most n elements (sequential slicing semantics).
  Stream<T> limit(std::uint64_t n) && {
    return rewrap<T>(std::make_unique<detail::SliceSpliterator<T>>(
        std::move(source_), 0, n));
  }

  /// Drop the first n elements (sequential slicing semantics).
  Stream<T> skip(std::uint64_t n) && {
    return rewrap<T>(std::make_unique<detail::SliceSpliterator<T>>(
        std::move(source_), n,
        std::numeric_limits<std::uint64_t>::max()));
  }

  /// Longest prefix satisfying the predicate (Java 9's takeWhile).
  /// Sequential slicing semantics, like limit.
  template <typename Pred>
  Stream<T> take_while(Pred pred) && {
    return rewrap<T>(std::make_unique<detail::TakeWhileSpliterator<T, Pred>>(
        std::move(source_), std::move(pred)));
  }

  /// Drop the longest prefix satisfying the predicate (dropWhile).
  template <typename Pred>
  Stream<T> drop_while(Pred pred) && {
    return rewrap<T>(std::make_unique<detail::DropWhileSpliterator<T, Pred>>(
        std::move(source_), std::move(pred)));
  }

  /// Sort the elements (stateful: materialises lazily at first
  /// traversal, like Java's sorted()). The buffer point restarts fusion:
  /// terminals re-enter fuse_pipeline on the sorted buffer as a fresh
  /// windowed array source, so downstream stages still fuse.
  template <typename Cmp = std::less<T>>
  Stream<T> sorted(Cmp cmp = Cmp{}) && {
    return rewrap<T>(std::make_unique<SortedSpliterator<T, Cmp>>(
        std::move(source_), std::move(cmp)));
  }

  /// Remove duplicates, keeping first occurrences (stateful). Fuses as a
  /// DistinctSink; the seen-set makes the chain single-leaf-only.
  Stream<T> distinct() && {
    return rewrap<T>(std::make_unique<DistinctSpliterator<T>>(
        std::move(source_)));
  }

  // ---- typed static pipeline -----------------------------------------

  /// Hand the stream's source to a compile-time stage stack: the ops
  /// (streams/static_fusion.hpp: stages::map/filter/peek values) become a
  /// tuple type, and terminals run the whole chain as one inlined loop
  /// per chunk with no virtual calls between stages. Defined in
  /// streams/static_fusion.hpp (include it, or pls.hpp, to use).
  template <typename... Ops>
  auto stages(Ops&&... ops) &&;

  // ---- terminal operations -------------------------------------------

  /// Mutable reduction with a Collector (the template method of the
  /// paper's adaptation).
  template <typename C>
  typename C::result_type collect(const C& collector) && {
    return evaluate(source_, terminals::collect(collector), parallel_,
                    config_);
  }

  /// Three-function collect, as in the paper's snippets:
  /// collect(supplier, accumulator, combiner).
  template <typename SupplyFn, typename AccumulateFn, typename CombineFn>
  auto collect(SupplyFn supply, AccumulateFn accumulate,
               CombineFn combine) && {
    auto c = make_collector<T>(std::move(supply), std::move(accumulate),
                               std::move(combine));
    return evaluate(source_, terminals::collect(c), parallel_, config_);
  }

  /// Reduce with an associative operator; nullopt on an empty stream.
  template <typename Op>
  std::optional<T> reduce(Op op) && {
    return evaluate(source_, terminals::reduce(op), parallel_, config_);
  }

  /// Reduce with identity; `identity` must be a true identity of `op`.
  template <typename Op>
  T reduce(T identity, Op op) && {
    auto r = evaluate(source_, terminals::reduce(op), parallel_, config_);
    return r.has_value() ? std::move(*r) : std::move(identity);
  }

  template <typename Fn>
  void for_each(Fn fn) && {
    evaluate(source_, terminals::for_each(fn), parallel_, config_);
  }

  std::uint64_t count() && {
    return evaluate(source_, terminals::count(), parallel_, config_);
  }

  std::vector<T> to_vector() && {
    return evaluate(source_, terminals::collect(VectorCollector<T>{}),
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
    return evaluate(source_, terminals::any_match(pred), parallel_, config_);
  }

  /// Direct cancelling sink — not a negated any_match, so no negated
  /// predicate wrapper is evaluated per element.
  template <typename Pred>
  bool all_match(Pred pred) && {
    return evaluate(source_, terminals::all_match(pred), parallel_, config_);
  }

  template <typename Pred>
  bool none_match(Pred pred) && {
    return evaluate(source_, terminals::none_match(pred), parallel_, config_);
  }

  std::optional<T> find_first() && {
    return evaluate(source_, terminals::find_first(), parallel_, config_);
  }

  // ---- introspection --------------------------------------------------

  /// The underlying spliterator (e.g. to check the POWER2 characteristic
  /// before applying a PowerList function, as the paper's snippet does).
  const Spliterator<T>& spliterator() const { return *source_; }

  Characteristics characteristics() const {
    return source_->characteristics();
  }

  std::uint64_t estimate_size() const { return source_->estimate_size(); }

 private:
  template <typename U>
  Stream<U> rewrap(std::unique_ptr<Spliterator<U>> source) {
    Stream<U> out(std::move(source), parallel_);
    out.config_ = config_;
    return out;
  }

  template <typename U>
  friend class Stream;

  // The typed static pipeline adopts a stream's source and settings
  // (streams/static_fusion.hpp).
  template <typename S, typename... Ops>
  friend class StaticPipeline;

  std::unique_ptr<Spliterator<T>> source_;
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
