// The stateless stages — map, filter, peek, flat_map — as value-type ops,
// and the one sink and stage descriptor that run them.
//
// Each op is a plain value type tagged with a category; a std::tuple of op
// types IS a chain's compile-time description. StaticChainSink pushes a
// chunk through the whole tuple in one inlined loop, and StaticChainStage
// is the StageNode that wraps it. There is no other transport for these
// ops: Stream::map/filter/peek/flat_map each append a one-op
// StaticChainStage, and a typed static pipeline
// (streams/static_fusion.hpp) or service session appends one stage for
// its whole op stack.
//
// Downstream batches are part of the contract — a boundary-sensitive
// chunk fold (simd::horner_chunk) sees them — so they are fixed per chain
// shape:
//   - peek only:    each observer runs, then the same pointer and length
//                   go downstream (zero copies);
//   - 1:1 (map):    kFusionChunk-input slices, one scratch write each;
//   - filter:       each kFusionChunk-input slice compacted, empty
//                   slices dropped;
//   - flat_map:     expansions gathered across the whole incoming chunk
//                   and flushed once the buffer reaches kFusionChunk —
//                   one element's expansion is never split.
// Element types that cannot sit in the scratch buffer run element-wise.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "streams/characteristics.hpp"
#include "streams/fusion.hpp"
#include "streams/sink.hpp"

namespace pls::streams {

// ---- stage vocabulary -------------------------------------------------
//
// The factories are the user-facing spelling: stages::map(fn),
// stages::filter(pred), stages::peek(observer), stages::flat_map(fn).

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

template <typename Op, typename Tag>
inline constexpr bool is_op_v = std::is_same_v<typename Op::category, Tag>;

/// True when every op yields exactly one output per input. Filter drops
/// elements and flat_map fans out, so either breaks the 1:1 contract (and
/// with it dense chunk mode and sized sink propagation).
template <typename... Ops>
inline constexpr bool chain_one_to_one_v =
    !((is_op_v<Ops, stages::FilterTag> || is_op_v<Ops, stages::FlatMapTag>) ||
      ...);

/// The characteristics an op drops, as its dynamic Stream op always has:
/// map loses sortedness and distinctness, filter the size facts, flat_map
/// both, peek nothing.
template <typename Op>
inline constexpr Characteristics stage_lost_v =
    (is_op_v<Op, stages::MapTag> ? kSorted | kDistinct : 0) |
    (is_op_v<Op, stages::FilterTag> ? kSizeFacts : 0) |
    (is_op_v<Op, stages::FlatMapTag> ? kSizeFacts | kSorted | kDistinct : 0);

namespace detail {

/// Push one value through ops [I..N) and hand every surviving output to
/// `emit` — as an rvalue once a map or flat_map has made it, so the chain
/// moves what it made and copies only what it was handed. Ops see their
/// argument as const, whatever its category. Fully inlined: `if
/// constexpr` dispatch on the category tag, no indirection anywhere.
template <std::size_t I, typename Tuple, typename V, typename Emit>
inline void push_through(const Tuple& ops, V&& v, Emit& emit) {
  if constexpr (I == std::tuple_size_v<Tuple>) {
    emit(std::forward<V>(v));
  } else {
    using Op = std::tuple_element_t<I, Tuple>;
    const auto& op = std::get<I>(ops);
    if constexpr (is_op_v<Op, stages::MapTag>) {
      push_through<I + 1>(ops, op.fn(std::as_const(v)), emit);
    } else if constexpr (is_op_v<Op, stages::FilterTag>) {
      if (op.pred(std::as_const(v)))
        push_through<I + 1>(ops, std::forward<V>(v), emit);
    } else if constexpr (is_op_v<Op, stages::FlatMapTag>) {
      auto expansion = op.fn(std::as_const(v));
      for (auto&& out : expansion)
        push_through<I + 1>(ops, std::move(out), emit);
    } else {
      op.fn(std::as_const(v));
      push_through<I + 1>(ops, std::forward<V>(v), emit);
    }
  }
}

/// 1:1 chains only: compute the chain's output for one input as a plain
/// expression, so the per-chunk loop is a straight-line indexed store the
/// vectorizer can handle.
template <std::size_t I, typename Tuple, typename V>
inline auto apply_chain(const Tuple& ops, V&& v) {
  if constexpr (I == std::tuple_size_v<Tuple>) {
    return std::forward<V>(v);
  } else {
    using Op = std::tuple_element_t<I, Tuple>;
    static_assert(is_op_v<Op, stages::MapTag> || is_op_v<Op, stages::PeekTag>,
                  "apply_chain is for 1:1 chains");
    const auto& op = std::get<I>(ops);
    if constexpr (is_op_v<Op, stages::MapTag>) {
      return apply_chain<I + 1>(ops, op.fn(std::as_const(v)));
    } else {
      op.fn(std::as_const(v));
      return apply_chain<I + 1>(ops, std::forward<V>(v));
    }
  }
}

}  // namespace detail

// ---- the chain sink and stage -----------------------------------------

/// Sink applying an entire op stack inline per chunk: one scratch buffer
/// for the whole chain, one downstream accept_chunk per batch (see the
/// header comment for the batch each chain shape delivers).
template <typename In, typename... Ops>
class StaticChainSink final : public Sink<In> {
 public:
  using Out = chain_output_t<In, Ops...>;

 private:
  static constexpr bool kPeekOnly = (is_op_v<Ops, stages::PeekTag> && ...);
  static constexpr bool kOneToOne = chain_one_to_one_v<Ops...>;
  static constexpr bool kFansOut = (is_op_v<Ops, stages::FlatMapTag> || ...);
  // Whether the outputs are elements the chain made (and may move into
  // the scratch) or input elements it passes on (and must copy).
  static constexpr bool kMakes =
      ((is_op_v<Ops, stages::MapTag> || is_op_v<Ops, stages::FlatMapTag>) ||
       ...);
  static constexpr bool kBatched = kMakes
                                       ? std::is_move_constructible_v<Out>
                                       : std::is_copy_constructible_v<Out>;
  // Dense mode: every input yields exactly one output, so the chunk loop
  // writes scratch_[i] directly instead of push_back bookkeeping.
  static constexpr bool kDense = kOneToOne && kBatched &&
                                 std::is_default_constructible_v<Out> &&
                                 std::is_move_assignable_v<Out>;

 public:
  StaticChainSink(std::shared_ptr<const std::tuple<Ops...>> ops,
                  Sink<Out>& down)
      : ops_(std::move(ops)), down_(down) {
    if constexpr (!kPeekOnly && kBatched) scratch_.reserve(kFusionChunk);
  }

  void begin(std::uint64_t size) override {
    down_.begin(kOneToOne ? size : kUnknownSinkSize);
  }
  void end() override { down_.end(); }
  bool cancellation_requested() const override {
    return down_.cancellation_requested();
  }

  void accept(const In& value) override {
    const auto emit = [&](const Out& out) { down_.accept(out); };
    detail::push_through<0>(*ops_, value, emit);
  }

  void accept_chunk(const In* values, std::size_t n) override {
    const std::tuple<Ops...>& ops = *ops_;
    if constexpr (kPeekOnly) {
      const auto none = [](const In&) {};
      for (std::size_t i = 0; i < n; ++i)
        detail::push_through<0>(ops, values[i], none);
      down_.accept_chunk(values, n);
    } else if constexpr (!kBatched) {
      for (std::size_t i = 0; i < n; ++i) accept(values[i]);
    } else {
      const auto keep = [&](auto&& out) {
        scratch_.push_back(std::forward<decltype(out)>(out));
      };
      while (n > 0) {
        // A fan-out chain gathers across the whole chunk; the others
        // work in kFusionChunk-input slices.
        const std::size_t m = kFansOut ? n : std::min(n, kFusionChunk);
        if constexpr (kDense) {
          scratch_.resize(m);
          Out* out = scratch_.data();
          for (std::size_t i = 0; i < m; ++i)
            out[i] = detail::apply_chain<0>(ops, values[i]);
          down_.accept_chunk(out, m);
        } else {
          for (std::size_t i = 0; i < m; ++i) {
            detail::push_through<0>(ops, values[i], keep);
            if (kFansOut && scratch_.size() >= kFusionChunk) flush();
          }
          flush();
        }
        values += m;
        n -= m;
      }
    }
  }

 private:
  void flush() {
    if (scratch_.empty()) return;
    down_.accept_chunk(scratch_.data(), scratch_.size());
    scratch_.clear();
  }

  std::shared_ptr<const std::tuple<Ops...>> ops_;
  Sink<Out>& down_;
  std::vector<Out> scratch_;
};

/// An op stack as ONE StageNode, so the FusedPipeline machinery
/// (splitting, DPS admission, counter parity, terminal drivers) applies
/// unchanged. Its facts fold the ops' own: 1:1 unless a filter or
/// flat_map is in the stack, and the characteristics each op drops.
template <typename In, typename... Ops>
class StaticChainStage final
    : public TypedStage<In, chain_output_t<In, Ops...>> {
 public:
  using Out = chain_output_t<In, Ops...>;

  explicit StaticChainStage(std::shared_ptr<const std::tuple<Ops...>> ops)
      : ops_(std::move(ops)) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<StaticChainSink<In, Ops...>>(
        ops_, static_cast<Sink<Out>&>(downstream));
  }
  bool one_to_one() const noexcept override {
    return chain_one_to_one_v<Ops...>;
  }
  Characteristics characteristics(Characteristics c) const noexcept override {
    return c & ~(Characteristics{0} | ... | stage_lost_v<Ops>);
  }

 private:
  std::shared_ptr<const std::tuple<Ops...>> ops_;
};

}  // namespace pls::streams
