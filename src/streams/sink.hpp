// Sink<T>: the push-mode consumer protocol of the fusion engine
// (mirrors java.util.stream.Sink).
//
// A pull pipeline pays one indirect try_advance / action hop per stage
// per element. Java's engine never does that — AbstractPipeline composes
// all intermediate ops into one Sink chain per leaf (opWrapSink) and runs
// a single tight loop, and so does this one (streams/fusion.hpp). This
// header is that protocol: a Sink accepts a begin(size) / accept(value)* /
// end() conversation, and can ask for early termination through
// cancellation_requested() (how limit/takeWhile short-circuit upstream).
//
// Two transports:
//  - accept(v): one element, one virtual call — the fallback for element
//    types that cannot sit in a scratch buffer, and the only transport
//    for cancelling (short-circuit) chains, whose per-element
//    cancellation checks must consume the source no deeper than the ops'
//    semantics demand.
//  - accept_chunk(p, n): a whole batch per virtual call. Stage sinks
//    override it with an inlined loop over their concrete operator. The
//    stateless ops (map/filter/peek/flat_map) all run on one sink,
//    StaticChainSink (streams/chain_stage.hpp), which inlines a whole op
//    stack per chunk; the sinks here are the stateful and cancelling ones.
//
// Stage sinks hold their downstream by reference: a sink chain is composed
// per leaf, used for one traversal, and destroyed (streams/fusion.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <unordered_set>
#include <vector>

namespace pls::streams {

/// begin() size argument when the upstream element count is unknown
/// (a filter or takeWhile stage upstream obscures it).
inline constexpr std::uint64_t kUnknownSinkSize = ~std::uint64_t{0};

/// Batch size of the chunked transport: large enough to amortise the one
/// virtual accept_chunk per stage, small enough that per-stage scratch
/// buffers stay cache-resident.
inline constexpr std::size_t kFusionChunk = 1024;

/// The element-type-independent face of a sink: traversal lifecycle and
/// cancellation. Stage descriptors compose sink chains through this base
/// (streams/fusion.hpp) so the chain can cross element-type changes.
class SinkControl {
 public:
  virtual ~SinkControl() = default;

  /// Called once before any elements; `size` is the exact element count
  /// when known, kUnknownSinkSize otherwise. Stages forward it downstream,
  /// adjusted by what they do to cardinality.
  virtual void begin(std::uint64_t size) { (void)size; }

  /// Called once after the last element (also after a cancelled
  /// traversal).
  virtual void end() {}

  /// True when this sink (or any downstream of it) wants no further
  /// elements — the short-circuit signal of limit / take_while. Drivers
  /// check it between elements on cancelling chains.
  virtual bool cancellation_requested() const { return false; }
};

/// A consumer of T values. accept() is the mandatory per-element entry;
/// accept_chunk() defaults to an accept loop and is overridden by every
/// stage sink with a batch loop over its concrete operator.
template <typename T>
class Sink : public SinkControl {
 public:
  using value_type = T;

  virtual void accept(const T& value) = 0;

  virtual void accept_chunk(const T* values, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) accept(values[i]);
  }
};

// ---- stage sinks -----------------------------------------------------
//
// One class per stateful or cancelling operation, templated on the
// concrete operator type so the chunk loops inline it. Each holds the
// shared operator (the same shared_ptr every split leaf's chain shares)
// and the downstream sink by reference.

/// distinct: hash-dedup keeping the first occurrence in encounter order.
/// Stateful: the seen-set spans the whole traversal, so a chain containing
/// this sink must be driven by exactly one leaf (the planner refuses to
/// split it; see StageNode::stateful in streams/fusion.hpp). Chunk mode
/// compacts the first occurrences of each kFusionChunk-input slice.
template <typename T>
class DistinctSink final : public Sink<T> {
  static constexpr bool kBatched = std::is_copy_constructible_v<T>;

 public:
  explicit DistinctSink(Sink<T>& down) : down_(down) {
    if constexpr (kBatched) scratch_.reserve(kFusionChunk);
  }

  void begin(std::uint64_t) override { down_.begin(kUnknownSinkSize); }
  void end() override { down_.end(); }
  bool cancellation_requested() const override {
    return down_.cancellation_requested();
  }

  void accept(const T& value) override {
    if (seen_.insert(value).second) down_.accept(value);
  }

  void accept_chunk(const T* values, std::size_t n) override {
    if constexpr (kBatched) {
      while (n > 0) {
        const std::size_t m = n < kFusionChunk ? n : kFusionChunk;
        scratch_.clear();
        for (std::size_t i = 0; i < m; ++i) {
          if (seen_.insert(values[i]).second) scratch_.push_back(values[i]);
        }
        if (!scratch_.empty())
          down_.accept_chunk(scratch_.data(), scratch_.size());
        values += m;
        n -= m;
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) accept(values[i]);
    }
  }

 private:
  Sink<T>& down_;
  std::unordered_set<T> seen_;
  std::vector<T> scratch_;
};

/// skip + limit. A cancelling stage: once the limit is exhausted it
/// requests cancellation, and the element-mode driver stops pulling the
/// source (skip + limit elements, never more). Cancelling chains always
/// run element-mode, so the inherited accept_chunk is never hot.
template <typename T>
class SliceSink final : public Sink<T> {
 public:
  SliceSink(std::uint64_t skip, std::uint64_t limit, Sink<T>& down)
      : skip_(skip), limit_(limit), down_(down) {}

  void begin(std::uint64_t size) override {
    if (size == kUnknownSinkSize) {
      down_.begin(kUnknownSinkSize);
      return;
    }
    const std::uint64_t after_skip = size > skip_ ? size - skip_ : 0;
    down_.begin(after_skip < limit_ ? after_skip : limit_);
  }
  void end() override { down_.end(); }
  bool cancellation_requested() const override {
    return limit_ == 0 || down_.cancellation_requested();
  }

  void accept(const T& value) override {
    if (skip_ > 0) {
      --skip_;
      return;
    }
    if (limit_ == 0) return;
    --limit_;
    down_.accept(value);
  }

 private:
  std::uint64_t skip_;
  std::uint64_t limit_;
  Sink<T>& down_;
};

/// take_while: forwards the longest satisfying prefix, then cancels. The
/// first failing element is consumed from the source (it must be
/// examined) but not forwarded.
template <typename T, typename Pred>
class TakeWhileSink final : public Sink<T> {
 public:
  TakeWhileSink(std::shared_ptr<const Pred> pred, Sink<T>& down)
      : pred_(std::move(pred)), down_(down) {}

  void begin(std::uint64_t) override { down_.begin(kUnknownSinkSize); }
  void end() override { down_.end(); }
  bool cancellation_requested() const override {
    return done_ || down_.cancellation_requested();
  }

  void accept(const T& value) override {
    if (done_) return;
    if ((*pred_)(value)) {
      down_.accept(value);
    } else {
      done_ = true;
    }
  }

 private:
  std::shared_ptr<const Pred> pred_;
  Sink<T>& down_;
  bool done_ = false;
};

/// drop_while: drops the longest satisfying prefix, then forwards
/// everything. Stateful — the prefix flag spans the traversal. Chunk mode
/// forwards the rest of the chunk past the prefix as the same pointer.
template <typename T, typename Pred>
class DropWhileSink final : public Sink<T> {
 public:
  DropWhileSink(std::shared_ptr<const Pred> pred, Sink<T>& down)
      : pred_(std::move(pred)), down_(down) {}

  void begin(std::uint64_t) override { down_.begin(kUnknownSinkSize); }
  void end() override { down_.end(); }
  bool cancellation_requested() const override {
    return down_.cancellation_requested();
  }

  void accept(const T& value) override {
    if (dropping_ && (*pred_)(value)) return;
    dropping_ = false;
    down_.accept(value);
  }

  void accept_chunk(const T* values, std::size_t n) override {
    std::size_t i = 0;
    while (dropping_ && i < n && (*pred_)(values[i])) ++i;
    if (i < n) {
      dropping_ = false;
      down_.accept_chunk(values + i, n - i);
    }
  }

 private:
  std::shared_ptr<const Pred> pred_;
  Sink<T>& down_;
  bool dropping_ = true;
};

}  // namespace pls::streams
