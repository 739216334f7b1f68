// Compile-time fused stage stacks: the typed static-pipeline API.
//
// A dynamic Stream appends one StaticChainStage per map/filter/peek/
// flat_map (streams/chain_stage.hpp), so a four-map chain pays four
// virtual accept_chunk hops and four scratch round-trips per batch. When
// the whole chain shape is known at compile time, none of that is
// necessary: StaticPipeline keeps the ops in a std::tuple whose *type* is
// the chain and appends them as ONE StaticChainStage, so the whole stack
// compiles into a single inlined loop per contiguous chunk — one scratch
// buffer, one virtual hop into the terminal, zero calls between stages.
//
// The stage rides the stream's FusedPipeline: splitting,
// destination-passing collect admission, observe-counter parity and the
// terminal drivers are reused unchanged, and the chain applies the ops in
// the dynamic order with no re-association, so static and dynamic
// results are bit-identical (floating point included; only the opt-in
// SIMD collectors in support/simd.hpp re-associate).
//
// Static admission is decided by the type system: the vocabulary is
// map / filter / peek / flat_map only. Cancelling stages (limit,
// take_while) are deliberately not expressible — they force element-mode
// driving, which would erase the whole point of the static chain; spell
// those with the dynamic Stream API (docs/execution.md has the admission
// table). Stateful stages (distinct, sorted) are likewise dynamic-only:
// they carry runtime state that defeats splitting. Any stream works: the
// static stack appends to whatever pipeline the stream already holds.
//
// Entry points:
//   pls::pipe(stages::map(f), stages::filter(p), ...).over(vec)...
//   Stream<T>::stages(stages::map(f), ...)  — adopt an existing stream's
//     pipeline and execution settings mid-chain.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "streams/chain_stage.hpp"
#include "streams/fusion.hpp"
#include "streams/parallel_eval.hpp"
#include "streams/spliterator.hpp"
#include "streams/stream.hpp"
#include "support/assert.hpp"

namespace pls::streams {

// ---- the typed pipeline facade ---------------------------------------

/// A single-use pipeline whose stage list is part of its type. Mirrors
/// Stream's execution builders and terminals; on terminal evaluation it
/// appends the one StaticChainStage to the pipeline it adopted and runs
/// the unified terminal dispatch.
template <typename S, typename... Ops>
class StaticPipeline {
 public:
  /// Output element type of the whole chain — a compile-time fact here,
  /// where the dynamic Stream only knows it per-stage.
  using value_type = chain_output_t<S, Ops...>;

  StaticPipeline(std::unique_ptr<Spliterator<S>> source,
                 std::shared_ptr<const std::tuple<Ops...>> ops, bool parallel,
                 ExecutionConfig config)
      : StaticPipeline(fuse_source(std::move(source)), std::move(ops),
                       parallel, config) {}

  /// Adopt a stream's pipeline and execution settings (used by
  /// StagePipe::over and Stream::stages).
  static StaticPipeline adopt(Stream<S> s,
                              std::shared_ptr<const std::tuple<Ops...>> ops) {
    return StaticPipeline(s.take(), std::move(ops), s.parallel_, s.config_);
  }

  // ---- execution configuration (same contract as Stream's) -----------

  StaticPipeline& parallel() & = delete;
  StaticPipeline&& parallel() && {
    parallel_ = true;
    return std::move(*this);
  }

  StaticPipeline&& parallel(const ExecutionConfig& cfg) && {
    parallel_ = true;
    config_ = cfg;
    return std::move(*this);
  }

  StaticPipeline& sequential() & = delete;
  StaticPipeline&& sequential() && {
    parallel_ = false;
    return std::move(*this);
  }

  bool is_parallel() const noexcept { return parallel_; }

  StaticPipeline&& via(forkjoin::ForkJoinPool& pool) && {
    config_.with_pool(pool);
    return std::move(*this);
  }

  StaticPipeline&& with_config(const ExecutionConfig& cfg) && {
    config_ = cfg;
    return std::move(*this);
  }

  StaticPipeline&& with_min_chunk(std::uint64_t n) && {
    config_.with_min_chunk(n);
    return std::move(*this);
  }

  StaticPipeline&& with_sized_sink(bool enabled) && {
    config_.with_sized_sink(enabled);
    return std::move(*this);
  }

  const ExecutionConfig& config() const noexcept { return config_; }

  // ---- growing the stack ---------------------------------------------

  /// Append further ops; returns a pipeline of the extended type.
  template <typename... More>
  StaticPipeline<S, Ops..., std::decay_t<More>...> stages(More&&... more) && {
    static_assert((is_stage_op_v<More> && ...),
                  "stages(...) takes stage ops (stages::map/filter/peek/flat_map)");
    auto merged = std::make_shared<const std::tuple<Ops..., std::decay_t<More>...>>(
        std::tuple_cat(std::tuple<Ops...>(*ops_),
                       std::tuple<std::decay_t<More>...>(
                           std::forward<More>(more)...)));
    return StaticPipeline<S, Ops..., std::decay_t<More>...>(
        take(), std::move(merged), parallel_, config_);
  }

  // ---- terminal operations -------------------------------------------

  template <typename C>
  typename C::result_type collect(const C& collector) && {
    return std::move(*this).run(terminals::collect(collector));
  }

  template <typename Op>
  std::optional<value_type> reduce(Op op) && {
    return std::move(*this).run(terminals::reduce(op));
  }

  template <typename Op>
  value_type reduce(value_type identity, Op op) && {
    auto r = std::move(*this).run(terminals::reduce(op));
    return r.has_value() ? std::move(*r) : std::move(identity);
  }

  template <typename Fn>
  void for_each(Fn fn) && {
    std::move(*this).run(terminals::for_each(fn));
  }

  std::uint64_t count() && {
    return std::move(*this).run(terminals::count());
  }

  std::vector<value_type> to_vector() && {
    return std::move(*this).run(
        terminals::collect(VectorCollector<value_type>{}));
  }

  /// The stream this pipeline's terminal would drive: the adopted
  /// pipeline with the op stack appended as its one stage, the same
  /// settings.
  Stream<value_type> to_stream() && {
    return Stream<value_type>(chained(), parallel_, config_);
  }

 private:
  template <typename S2, typename... Ops2>
  friend class StaticPipeline;
  template <typename U>
  friend class Stream;

  StaticPipeline(std::unique_ptr<FusedPipeline> pipeline,
                 std::shared_ptr<const std::tuple<Ops...>> ops, bool parallel,
                 ExecutionConfig config)
      : pipeline_(std::move(pipeline)),
        ops_(std::move(ops)),
        parallel_(parallel),
        config_(config) {}

  std::unique_ptr<FusedPipeline> take() {
    PLS_CHECK(pipeline_ != nullptr, "StaticPipeline is single-use");
    return std::move(pipeline_);
  }

  /// The adopted pipeline with the op stack appended as one stage.
  std::unique_ptr<FusedPipeline> chained() {
    auto fp = take();
    if constexpr (sizeof...(Ops) > 0) {
      fp->append_stage(std::make_shared<StaticChainStage<S, Ops...>>(ops_));
    }
    return fp;
  }

  /// Unified terminal drive: append the static stack as one stage,
  /// evaluate.
  template <typename Term>
  auto run(const Term& term) && {
    auto fp = chained();
    return evaluate<value_type>(*fp, term, parallel_, config_,
                                PlanOrigin::kStatic);
  }

  std::unique_ptr<FusedPipeline> pipeline_;
  std::shared_ptr<const std::tuple<Ops...>> ops_;
  bool parallel_ = false;
  ExecutionConfig config_{};
};

// ---- source-free builder ---------------------------------------------

/// A stage stack waiting for a source: the result of pls::pipe(...).
/// `over(...)` binds a source and yields the typed pipeline.
template <typename... Ops>
class StagePipe {
 public:
  explicit StagePipe(std::tuple<Ops...> ops)
      : ops_(std::make_shared<const std::tuple<Ops...>>(std::move(ops))) {}

  /// Bind to a vector (copied/moved into shared storage).
  template <typename T>
  StaticPipeline<T, Ops...> over(std::vector<T> values) const {
    return StaticPipeline<T, Ops...>::adopt(Stream<T>::of(std::move(values)),
                                            ops_);
  }

  /// Bind to shared storage (no copy).
  template <typename T>
  StaticPipeline<T, Ops...> over_shared(
      std::shared_ptr<const std::vector<T>> values) const {
    return StaticPipeline<T, Ops...>::adopt(
        Stream<T>::of_shared(std::move(values)), ops_);
  }

  /// Bind to an integer range [begin, end).
  template <typename T>
  StaticPipeline<T, Ops...> over_range(T begin, T end) const {
    return StaticPipeline<T, Ops...>::adopt(Stream<T>::range(begin, end),
                                            ops_);
  }

  /// Adopt an existing stream (pipeline, parallelism and config carry
  /// over); any ops already applied to the stream run dynamically upstream
  /// of the static stack.
  template <typename T>
  StaticPipeline<T, Ops...> over(Stream<T> s) const {
    return StaticPipeline<T, Ops...>::adopt(std::move(s), ops_);
  }

 private:
  std::shared_ptr<const std::tuple<Ops...>> ops_;
};

/// Build a source-free static stage stack: pipe(map(f), filter(p), ...).
template <typename... Ops>
auto pipe(Ops&&... ops) {
  static_assert((is_stage_op_v<Ops> && ...),
                "pipe(...) takes stage ops (stages::map/filter/peek/flat_map)");
  return StagePipe<std::decay_t<Ops>...>(
      std::tuple<std::decay_t<Ops>...>(std::forward<Ops>(ops)...));
}

// ---- Stream::stages out-of-line definition ---------------------------

template <typename T>
template <typename... Ops>
auto Stream<T>::stages(Ops&&... ops) && {
  static_assert((is_stage_op_v<Ops> && ...),
                "stages(...) takes stage ops (stages::map/filter/peek/flat_map)");
  auto tuple = std::make_shared<const std::tuple<std::decay_t<Ops>...>>(
      std::forward<Ops>(ops)...);
  return StaticPipeline<T, std::decay_t<Ops>...>(take(), std::move(tuple),
                                                 parallel_, config_);
}

}  // namespace pls::streams
