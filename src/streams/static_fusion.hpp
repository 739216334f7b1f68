// Compile-time fused stage stacks: the typed static-pipeline API.
//
// The dynamic fusion engine (streams/fusion.hpp) erases every stage behind
// a StageNode and pays, per kFusionChunk batch, one virtual accept_chunk
// plus one scratch store/load round-trip *per stage*. When the chain shape
// is statically known, none of that is necessary: this header represents
// the ops as value types in a std::tuple whose *type* is the chain, so the
// whole map/filter/peek stack compiles into a single inlined loop per
// contiguous chunk — one scratch buffer, one virtual hop into the terminal,
// zero calls between stages.
//
// Integration point: the entire static stack becomes ONE StageNode
// (StaticChainStage) appended to the pipeline of the stream it adopts.
// Splitting, destination-passing collect admission,
// observe-counter parity and the terminal drivers are all reused unchanged,
// so a static pipeline is observationally identical to its dynamic
// equivalent — element order, per-element evaluation order, and results are
// the same (bit-identical, including floating point: the static chain never
// re-associates; only the opt-in SIMD collectors in support/simd.hpp do).
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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <tuple>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "streams/fusion.hpp"
#include "streams/parallel_eval.hpp"
#include "streams/sink.hpp"
#include "streams/spliterator.hpp"
#include "streams/stream.hpp"
#include "support/assert.hpp"

namespace pls::streams {

// ---- stage vocabulary -------------------------------------------------
//
// Each op is a plain value type tagged with a category; the tuple of op
// types IS the pipeline's compile-time description. Factories are the
// user-facing spelling: stages::map(fn), stages::filter(pred),
// stages::peek(observer).

namespace stages {

struct MapTag {};
struct FilterTag {};
struct PeekTag {};
struct FlatMapTag {};

template <typename Fn>
struct MapOp {
  using category = MapTag;
  Fn fn;
};

template <typename Pred>
struct FilterOp {
  using category = FilterTag;
  Pred pred;
};

template <typename Fn>
struct PeekOp {
  using category = PeekTag;
  Fn fn;
};

template <typename Fn>
struct FlatMapOp {
  using category = FlatMapTag;
  Fn fn;
};

template <typename Fn>
constexpr MapOp<std::decay_t<Fn>> map(Fn&& fn) {
  return {std::forward<Fn>(fn)};
}

template <typename Pred>
constexpr FilterOp<std::decay_t<Pred>> filter(Pred&& pred) {
  return {std::forward<Pred>(pred)};
}

template <typename Fn>
constexpr PeekOp<std::decay_t<Fn>> peek(Fn&& fn) {
  return {std::forward<Fn>(fn)};
}

template <typename Fn>
constexpr FlatMapOp<std::decay_t<Fn>> flat_map(Fn&& fn) {
  return {std::forward<Fn>(fn)};
}

}  // namespace stages

template <typename Op, typename = void>
struct is_stage_op : std::false_type {};
template <typename Op>
struct is_stage_op<Op, std::void_t<typename Op::category>> : std::true_type {
};
template <typename Op>
inline constexpr bool is_stage_op_v = is_stage_op<std::decay_t<Op>>::value;

// ---- chain type computation ------------------------------------------

template <typename In, typename Op>
struct stage_output;
template <typename In, typename Fn>
struct stage_output<In, stages::MapOp<Fn>> {
  using type = std::decay_t<std::invoke_result_t<const Fn&, const In&>>;
};
template <typename In, typename Pred>
struct stage_output<In, stages::FilterOp<Pred>> {
  using type = In;
};
template <typename In, typename Fn>
struct stage_output<In, stages::PeekOp<Fn>> {
  using type = In;
};
template <typename In, typename Fn>
struct stage_output<In, stages::FlatMapOp<Fn>> {
  // The op returns a range of outputs; the stage's element type is that
  // range's value_type.
  using type = typename std::decay_t<
      std::invoke_result_t<const Fn&, const In&>>::value_type;
};

template <typename In, typename... Ops>
struct chain_output {
  using type = In;
};
template <typename In, typename Op, typename... Rest>
struct chain_output<In, Op, Rest...>
    : chain_output<typename stage_output<In, Op>::type, Rest...> {};

/// Element type produced by pushing an In through the whole op stack.
template <typename In, typename... Ops>
using chain_output_t = typename chain_output<In, Ops...>::type;

template <typename... Ops>
inline constexpr bool chain_has_filter_v =
    (std::is_same_v<typename Ops::category, stages::FilterTag> || ...);

/// True when every op yields exactly one output per input. Filter drops
/// elements and flat_map fans out, so either breaks the 1:1 contract (and
/// with it dense chunk mode and sized sink propagation).
template <typename... Ops>
inline constexpr bool chain_one_to_one_v =
    !((std::is_same_v<typename Ops::category, stages::FilterTag> ||
       std::is_same_v<typename Ops::category, stages::FlatMapTag>) ||
      ...);

namespace detail {

/// Push one value through ops [I..N) and hand every surviving output to
/// `emit`. Fully inlined: `if constexpr` dispatch on the category tag, no
/// indirection anywhere.
template <std::size_t I, typename Tuple, typename T, typename Emit>
inline void push_through(const Tuple& ops, const T& v, Emit&& emit) {
  if constexpr (I == std::tuple_size_v<Tuple>) {
    emit(v);
  } else {
    using Op = std::tuple_element_t<I, Tuple>;
    using Cat = typename Op::category;
    const auto& op = std::get<I>(ops);
    if constexpr (std::is_same_v<Cat, stages::MapTag>) {
      push_through<I + 1>(ops, op.fn(v), std::forward<Emit>(emit));
    } else if constexpr (std::is_same_v<Cat, stages::FilterTag>) {
      if (op.pred(v)) push_through<I + 1>(ops, v, std::forward<Emit>(emit));
    } else if constexpr (std::is_same_v<Cat, stages::FlatMapTag>) {
      for (const auto& out : op.fn(v))
        push_through<I + 1>(ops, out, emit);
    } else {
      op.fn(v);
      push_through<I + 1>(ops, v, std::forward<Emit>(emit));
    }
  }
}

/// 1:1 chains only (no filter): compute the chain's output for one input
/// as a plain expression, so the per-chunk loop is a straight-line indexed
/// store the vectorizer can handle.
template <std::size_t I, typename Tuple, typename T>
inline auto apply_chain(const Tuple& ops, const T& v) {
  if constexpr (I == std::tuple_size_v<Tuple>) {
    return v;
  } else {
    using Op = std::tuple_element_t<I, Tuple>;
    using Cat = typename Op::category;
    const auto& op = std::get<I>(ops);
    static_assert(!std::is_same_v<Cat, stages::FilterTag> &&
                      !std::is_same_v<Cat, stages::FlatMapTag>,
                  "apply_chain is for 1:1 chains");
    if constexpr (std::is_same_v<Cat, stages::MapTag>) {
      return apply_chain<I + 1>(ops, op.fn(v));
    } else {
      op.fn(v);
      return apply_chain<I + 1>(ops, v);
    }
  }
}

}  // namespace detail

// ---- the fused stage --------------------------------------------------

/// Sink applying an entire static op stack inline per chunk. One scratch
/// buffer for the whole chain (stage-local scratches disappear), one
/// downstream accept_chunk per batch.
template <typename In, typename... Ops>
class StaticChainSink final : public Sink<In> {
 public:
  using Out = chain_output_t<In, Ops...>;

 private:
  static constexpr bool kOneToOne = chain_one_to_one_v<Ops...>;
  static constexpr bool kBatched = std::is_move_constructible_v<Out>;
  // Dense mode: every input yields exactly one output, so the chunk loop
  // writes scratch_[i] directly instead of push_back bookkeeping.
  static constexpr bool kDense =
      kOneToOne && std::is_default_constructible_v<Out>;

 public:
  StaticChainSink(std::shared_ptr<const std::tuple<Ops...>> ops,
                  Sink<Out>& down)
      : ops_(std::move(ops)), down_(down) {
    if constexpr (kBatched) scratch_.reserve(kFusionChunk);
  }

  void begin(std::uint64_t size) override {
    down_.begin(kOneToOne ? size : kUnknownSinkSize);
  }
  void end() override { down_.end(); }
  bool cancellation_requested() const override {
    return down_.cancellation_requested();
  }

  void accept(const In& value) override {
    detail::push_through<0>(*ops_, value,
                            [&](const Out& out) { down_.accept(out); });
  }

  void accept_chunk(const In* values, std::size_t n) override {
    if constexpr (sizeof...(Ops) == 0) {
      down_.accept_chunk(values, n);
    } else if constexpr (!kBatched) {
      for (std::size_t i = 0; i < n; ++i) accept(values[i]);
    } else {
      const std::tuple<Ops...>& ops = *ops_;
      while (n > 0) {
        const std::size_t m = n < kFusionChunk ? n : kFusionChunk;
        if constexpr (kDense) {
          scratch_.resize(m);
          Out* out = scratch_.data();
          for (std::size_t i = 0; i < m; ++i)
            out[i] = detail::apply_chain<0>(ops, values[i]);
          down_.accept_chunk(out, m);
        } else {
          scratch_.clear();
          for (std::size_t i = 0; i < m; ++i) {
            detail::push_through<0>(ops, values[i], [&](const Out& out) {
              scratch_.push_back(out);
            });
          }
          if (!scratch_.empty())
            down_.accept_chunk(scratch_.data(), scratch_.size());
        }
        values += m;
        n -= m;
      }
    }
  }

 private:
  std::shared_ptr<const std::tuple<Ops...>> ops_;
  Sink<Out>& down_;
  std::vector<Out> scratch_;
};

/// The whole static stack as ONE StageNode, so the existing FusedPipeline
/// machinery (splitting, DPS admission, counter parity, terminal drivers)
/// applies unchanged.
template <typename In, typename... Ops>
class StaticChainStage final : public StageNode {
 public:
  using Out = chain_output_t<In, Ops...>;

  explicit StaticChainStage(std::shared_ptr<const std::tuple<Ops...>> ops)
      : ops_(std::move(ops)) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<StaticChainSink<In, Ops...>>(
        ops_, static_cast<Sink<Out>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(In);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(Out);
  }
  bool one_to_one() const noexcept override {
    return chain_one_to_one_v<Ops...>;
  }
  // What the equivalent dynamic chain reports, conservatively (a
  // peek-only stack keeps sortedness there).
  Characteristics characteristics(Characteristics c) const noexcept override {
    const Characteristics lost =
        chain_one_to_one_v<Ops...> ? kSorted | kDistinct
                                   : kSizeFacts | kSorted | kDistinct;
    return c & ~lost;
  }

 private:
  std::shared_ptr<const std::tuple<Ops...>> ops_;
};

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

  /// Dissolve into the equivalent dynamic stream: the same ops as
  /// dynamic stages, the same settings.
  Stream<value_type> to_stream() && {
    return apply_from<0>(Stream<S>(take(), parallel_, config_));
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

  /// Unified terminal drive: append the static stack as one stage,
  /// evaluate.
  template <typename Term>
  auto run(const Term& term) && {
    auto fp = take();
    if constexpr (sizeof...(Ops) > 0) {
      fp->append_stage(std::make_shared<StaticChainStage<S, Ops...>>(ops_));
    }
    return evaluate<value_type>(*fp, term, parallel_, config_,
                                PlanOrigin::kStatic);
  }

  template <std::size_t I, typename Cur>
  auto apply_from(Stream<Cur> s) {
    if constexpr (I == sizeof...(Ops)) {
      return s;
    } else {
      using Op = std::tuple_element_t<I, std::tuple<Ops...>>;
      using Cat = typename Op::category;
      const auto& op = std::get<I>(*ops_);
      if constexpr (std::is_same_v<Cat, stages::MapTag>) {
        return apply_from<I + 1>(std::move(s).map(op.fn));
      } else if constexpr (std::is_same_v<Cat, stages::FilterTag>) {
        return apply_from<I + 1>(std::move(s).filter(op.pred));
      } else if constexpr (std::is_same_v<Cat, stages::FlatMapTag>) {
        return apply_from<I + 1>(std::move(s).flat_map(op.fn));
      } else {
        return apply_from<I + 1>(std::move(s).peek(op.fn));
      }
    }
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
