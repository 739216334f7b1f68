// Sized-sink collectors: the collector side of destination-passing
// collect (docs/execution.md).
//
// A classic Collector describes a mutable reduction as supplier /
// accumulator / combiner; the parallel evaluator then pays a combine
// phase that physically moves every element O(log n) times. A *sized
// sink* is the collector's opt-in to the destination-passing (DPS)
// alternative: when the source spliterator is SIZED|SUBSIZED, windowed
// (streams::WindowedSource) and power-of-two sized (any size when
// INTERLEAVED), the evaluator
// allocates the result once via supply_sized(n), every leaf writes its
// elements straight to their final positions via accumulate_at, the
// combine phase is a no-op join, and finish_sized maps the filled sink to
// the result. A collector advertises the capability simply by providing
// the four members below (detected by the SizedSinkCollector concept);
// collectors without them always take the supplier/combiner path.
//
// Contracts:
//  - supply_sized(n) returns a sink with exactly n addressable slots;
//  - accumulate_at(sink, i, v) writes the element for result position i;
//    the evaluator guarantees each position is written exactly once, and
//    concurrent calls always target distinct positions;
//  - finish_sized consumes a fully written sink.
#pragma once

#include <concepts>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "observe/counters.hpp"
#include "streams/collector.hpp"
#include "support/assert.hpp"
#include "support/sized_buffer.hpp"

namespace pls::streams {

/// Detects the sized-sink protocol on a collector for element type T.
template <typename C, typename T>
concept SizedSinkCollector =
    requires(const C& c, typename C::sized_accumulation_type& sink,
             std::uint64_t n, const T& value) {
      typename C::sized_accumulation_type;
      {
        c.supply_sized(n)
      } -> std::same_as<typename C::sized_accumulation_type>;
      c.accumulate_at(sink, n, value);
      {
        c.finish_sized(std::move(sink))
      } -> std::convertible_to<typename C::result_type>;
    };

/// The standard sized sink for vector-shaped results. For
/// default-constructible T the sink *is* the result vector — exactly one
/// allocation, a pointer-swap finish, zero element moves. Otherwise it is
/// an uninitialized SizedBuffer whose slots are placement-new'd and moved
/// into a vector once at the end — two allocations and a single O(n) move
/// pass, still far from the supplier/combiner path's O(n log n).
template <typename T>
class SizedVectorSink {
  static constexpr bool kDirect = std::is_default_constructible_v<T>;
  using Storage = std::conditional_t<kDirect, std::vector<T>, SizedBuffer<T>>;

 public:
  explicit SizedVectorSink(std::uint64_t n)
      : storage_(static_cast<std::size_t>(n)) {
    observe::local_counters().on_allocation();
  }

  std::uint64_t size() const noexcept { return storage_.size(); }

  void write(std::uint64_t i, const T& value) {
    if constexpr (kDirect) {
      storage_[static_cast<std::size_t>(i)] = value;
    } else {
      storage_.construct(static_cast<std::size_t>(i), value);
    }
  }

  void write(std::uint64_t i, T&& value) {
    if constexpr (kDirect) {
      storage_[static_cast<std::size_t>(i)] = std::move(value);
    } else {
      storage_.construct(static_cast<std::size_t>(i), std::move(value));
    }
  }

  /// The filled result. For the direct (vector) representation this is a
  /// pointer swap; for the buffered one it allocates the vector and moves
  /// each element once.
  std::vector<T> take() && {
    if constexpr (kDirect) {
      return std::move(storage_);
    } else {
      observe::local_counters().on_allocation();
      return std::move(storage_).take_vector();
    }
  }

 private:
  Storage storage_;
};

/// Collector gathering all elements into a std::vector in encounter
/// order. Implements both protocols: the classic supplier/accumulator/
/// combiner triple (with combine-phase movement instrumented) and the
/// sized sink that the destination-passing evaluator prefers.
template <typename T>
class VectorCollector final : public Collector<T, std::vector<T>> {
 public:
  std::vector<T> supply() const override { return {}; }

  void accumulate(std::vector<T>& acc, const T& value) const override {
    acc.push_back(value);
  }

  void combine(std::vector<T>& left, std::vector<T>& right) const override {
    observe::local_counters().on_bytes_moved(right.size() * sizeof(T));
    left.reserve(left.size() + right.size());
    left.insert(left.end(), std::make_move_iterator(right.begin()),
                std::make_move_iterator(right.end()));
    right.clear();
  }

  // ---- sized-sink protocol -------------------------------------------

  using sized_accumulation_type = SizedVectorSink<T>;

  SizedVectorSink<T> supply_sized(std::uint64_t n) const {
    return SizedVectorSink<T>(n);
  }

  void accumulate_at(SizedVectorSink<T>& sink, std::uint64_t index,
                     const T& value) const {
    sink.write(index, value);
  }

  std::vector<T> finish_sized(SizedVectorSink<T>&& sink) const {
    return std::move(sink).take();
  }
};

}  // namespace pls::streams
