// Pipeline (intermediate-op) spliterators.
//
// Intermediate stream operations are implemented by wrapping the upstream
// spliterator: splitting a wrapper splits the upstream and re-wraps, so the
// whole lazy pipeline partitions for parallel execution exactly like the
// source does. Operation functions are held by shared_ptr because every
// split shares them.
#pragma once

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "streams/plan.hpp"
#include "streams/spliterator.hpp"
#include "streams/spliterators.hpp"
#include "support/assert.hpp"

namespace pls::streams {

/// map: applies Fn(T) -> U to each element. Maps 1:1 in encounter order,
/// so it passes the upstream's destination window straight through.
template <typename U, typename T, typename Fn>
class MapSpliterator final : public Spliterator<U>,
                             public WindowedSource,
                             public FusableStage {
 public:
  using Action = typename Spliterator<U>::Action;

  MapSpliterator(std::unique_ptr<Spliterator<T>> upstream,
                 std::shared_ptr<const Fn> fn)
      : upstream_(std::move(upstream)), fn_(std::move(fn)) {
    PLS_CHECK(upstream_ != nullptr && fn_ != nullptr,
              "MapSpliterator requires upstream and function");
  }

  bool try_advance(Action action) override {
    return upstream_->try_advance(
        [&](const T& t) { action((*fn_)(t)); });
  }

  void for_each_remaining(Action action) override {
    upstream_->for_each_remaining(
        [&](const T& t) { action((*fn_)(t)); });
  }

  std::unique_ptr<Spliterator<U>> try_split() override {
    auto prefix = upstream_->try_split();
    if (!prefix) return nullptr;
    return std::make_unique<MapSpliterator<U, T, Fn>>(std::move(prefix),
                                                      fn_);
  }

  std::uint64_t estimate_size() const override {
    return upstream_->estimate_size();
  }

  Characteristics characteristics() const override {
    // Mapping preserves size and order but not sortedness/distinctness.
    return upstream_->characteristics() & ~(kSorted | kDistinct);
  }

  std::optional<OutputWindow> try_output_window() const override {
    return output_window_of(*upstream_);
  }

  std::unique_ptr<FusedPipeline> strip_into_fused() override {
    auto fused = fuse_pipeline<T>(upstream_);
    fused->append_stage(std::make_shared<MapStage<U, T, Fn>>(fn_));
    return fused;
  }

 private:
  std::unique_ptr<Spliterator<T>> upstream_;
  std::shared_ptr<const Fn> fn_;
};

/// filter: keeps elements satisfying Pred(T) -> bool.
template <typename T, typename Pred>
class FilterSpliterator final : public Spliterator<T>, public FusableStage {
 public:
  using Action = typename Spliterator<T>::Action;

  FilterSpliterator(std::unique_ptr<Spliterator<T>> upstream,
                    std::shared_ptr<const Pred> pred)
      : upstream_(std::move(upstream)), pred_(std::move(pred)) {
    PLS_CHECK(upstream_ != nullptr && pred_ != nullptr,
              "FilterSpliterator requires upstream and predicate");
  }

  bool try_advance(Action action) override {
    bool delivered = false;
    while (!delivered) {
      const bool advanced = upstream_->try_advance([&](const T& t) {
        if ((*pred_)(t)) {
          action(t);
          delivered = true;
        }
      });
      if (!advanced) return false;
    }
    return true;
  }

  void for_each_remaining(Action action) override {
    upstream_->for_each_remaining([&](const T& t) {
      if ((*pred_)(t)) action(t);
    });
  }

  std::unique_ptr<Spliterator<T>> try_split() override {
    auto prefix = upstream_->try_split();
    if (!prefix) return nullptr;
    return std::make_unique<FilterSpliterator<T, Pred>>(std::move(prefix),
                                                        pred_);
  }

  std::uint64_t estimate_size() const override {
    // An upper-bound estimate: filtering loses SIZED (below) but the
    // estimate still guides split depth.
    return upstream_->estimate_size();
  }

  Characteristics characteristics() const override {
    return upstream_->characteristics() &
           ~(kSized | kSubsized | kPower2);
  }

  std::unique_ptr<FusedPipeline> strip_into_fused() override {
    auto fused = fuse_pipeline<T>(upstream_);
    fused->append_stage(std::make_shared<FilterStage<T, Pred>>(pred_));
    return fused;
  }

 private:
  std::unique_ptr<Spliterator<T>> upstream_;
  std::shared_ptr<const Pred> pred_;
};

/// peek: invokes a side-effecting observer, passes elements through
/// (including the upstream's destination window).
template <typename T, typename Fn>
class PeekSpliterator final : public Spliterator<T>,
                              public WindowedSource,
                              public FusableStage {
 public:
  using Action = typename Spliterator<T>::Action;

  PeekSpliterator(std::unique_ptr<Spliterator<T>> upstream,
                  std::shared_ptr<const Fn> observer)
      : upstream_(std::move(upstream)), observer_(std::move(observer)) {
    PLS_CHECK(upstream_ != nullptr && observer_ != nullptr,
              "PeekSpliterator requires upstream and observer");
  }

  bool try_advance(Action action) override {
    return upstream_->try_advance([&](const T& t) {
      (*observer_)(t);
      action(t);
    });
  }

  void for_each_remaining(Action action) override {
    upstream_->for_each_remaining([&](const T& t) {
      (*observer_)(t);
      action(t);
    });
  }

  std::unique_ptr<Spliterator<T>> try_split() override {
    auto prefix = upstream_->try_split();
    if (!prefix) return nullptr;
    return std::make_unique<PeekSpliterator<T, Fn>>(std::move(prefix),
                                                    observer_);
  }

  std::uint64_t estimate_size() const override {
    return upstream_->estimate_size();
  }

  Characteristics characteristics() const override {
    return upstream_->characteristics();
  }

  std::optional<OutputWindow> try_output_window() const override {
    return output_window_of(*upstream_);
  }

  std::unique_ptr<FusedPipeline> strip_into_fused() override {
    auto fused = fuse_pipeline<T>(upstream_);
    fused->append_stage(std::make_shared<PeekStage<T, Fn>>(observer_));
    return fused;
  }

 private:
  std::unique_ptr<Spliterator<T>> upstream_;
  std::shared_ptr<const Fn> observer_;
};

/// flat_map: Fn(T) -> std::vector<U>, concatenating the results. Fuses
/// into a FlatMapSink — the mapMulti-style multi-accept expansion — as
/// long as no expansion is mid-flight in the pull buffer; otherwise the
/// wrapper itself becomes the fused pipeline's source.
template <typename U, typename T, typename Fn>
class FlatMapSpliterator final : public Spliterator<U>, public FusableStage {
 public:
  using Action = typename Spliterator<U>::Action;

  FlatMapSpliterator(std::unique_ptr<Spliterator<T>> upstream,
                     std::shared_ptr<const Fn> fn)
      : upstream_(std::move(upstream)), fn_(std::move(fn)) {
    PLS_CHECK(upstream_ != nullptr && fn_ != nullptr,
              "FlatMapSpliterator requires upstream and function");
  }

  bool try_advance(Action action) override {
    while (cursor_ >= buffer_.size()) {
      buffer_.clear();
      cursor_ = 0;
      const bool advanced = upstream_->try_advance(
          [&](const T& t) { buffer_ = (*fn_)(t); });
      if (!advanced) return false;
    }
    action(buffer_[cursor_++]);
    return true;
  }

  void for_each_remaining(Action action) override {
    for (; cursor_ < buffer_.size(); ++cursor_) action(buffer_[cursor_]);
    upstream_->for_each_remaining([&](const T& t) {
      for (const U& u : (*fn_)(t)) action(u);
    });
  }

  std::unique_ptr<Spliterator<U>> try_split() override {
    // A partially consumed buffer precedes the remaining upstream in
    // encounter order, so splitting then would misorder; refuse (splits
    // happen before traversal in pipeline evaluation anyway).
    if (cursor_ < buffer_.size()) return nullptr;
    auto prefix = upstream_->try_split();
    if (!prefix) return nullptr;
    return std::make_unique<FlatMapSpliterator<U, T, Fn>>(std::move(prefix),
                                                          fn_);
  }

  std::uint64_t estimate_size() const override {
    return upstream_->estimate_size();  // lower bound in general
  }

  Characteristics characteristics() const override {
    return upstream_->characteristics() &
           ~(kSized | kSubsized | kSorted | kDistinct | kPower2);
  }

  std::unique_ptr<FusedPipeline> strip_into_fused() override {
    // Elements already expanded into the pull buffer precede the
    // remaining upstream in encounter order; a fresh sink chain would
    // drop them, so refuse and let the fuse step drive this wrapper.
    if (cursor_ < buffer_.size()) return nullptr;
    auto fused = fuse_pipeline<T>(upstream_);
    fused->append_stage(std::make_shared<FlatMapStage<U, T, Fn>>(fn_));
    return fused;
  }

 private:
  std::unique_ptr<Spliterator<T>> upstream_;
  std::shared_ptr<const Fn> fn_;
  std::vector<U> buffer_;
  std::size_t cursor_ = 0;
};

/// distinct: hash-dedup keeping first occurrences in encounter order.
/// Stateful — the seen-set spans the traversal — so it refuses to split
/// and its fused form admits only the single-leaf drive
/// (PlanReason::kChainStateful).
template <typename T>
class DistinctSpliterator final : public Spliterator<T>, public FusableStage {
 public:
  using Action = typename Spliterator<T>::Action;

  explicit DistinctSpliterator(std::unique_ptr<Spliterator<T>> upstream)
      : upstream_(std::move(upstream)) {
    PLS_CHECK(upstream_ != nullptr, "DistinctSpliterator requires upstream");
  }

  bool try_advance(Action action) override {
    bool delivered = false;
    while (!delivered) {
      const bool advanced = upstream_->try_advance([&](const T& t) {
        if (seen_.insert(t).second) {
          action(t);
          delivered = true;
        }
      });
      if (!advanced) return false;
    }
    return true;
  }

  void for_each_remaining(Action action) override {
    upstream_->for_each_remaining([&](const T& t) {
      if (seen_.insert(t).second) action(t);
    });
  }

  std::unique_ptr<Spliterator<T>> try_split() override { return nullptr; }

  std::uint64_t estimate_size() const override {
    return upstream_->estimate_size();  // upper bound
  }

  Characteristics characteristics() const override {
    return (upstream_->characteristics() & ~(kSized | kSubsized | kPower2)) |
           kDistinct;
  }

  std::unique_ptr<FusedPipeline> strip_into_fused() override {
    auto fused = fuse_pipeline<T>(upstream_);
    fused->append_stage(std::make_shared<DistinctStage<T>>());
    return fused;
  }

 private:
  std::unique_ptr<Spliterator<T>> upstream_;
  std::unordered_set<T> seen_;
};

/// sorted: buffers the whole upstream at first need, sorts it, and then
/// behaves as an array spliterator over the buffer — Java's full-barrier
/// stateful op. The buffer point restarts fusion: strip_into_fused()
/// materialises and re-enters fuse_pipeline on the buffer as a fresh
/// windowed SIZED|SUBSIZED source, so every stage *downstream* of sorted
/// still fuses (the stripped chain's source_size is the buffer count).
template <typename T, typename Cmp>
class SortedSpliterator final : public Spliterator<T>,
                                public WindowedSource,
                                public FusableStage {
 public:
  using Action = typename Spliterator<T>::Action;

  SortedSpliterator(std::unique_ptr<Spliterator<T>> upstream, Cmp cmp)
      : upstream_(std::move(upstream)), cmp_(std::move(cmp)) {
    PLS_CHECK(upstream_ != nullptr, "SortedSpliterator requires upstream");
  }

  bool try_advance(Action action) override {
    ensure_buffered();
    return inner_->try_advance(action);
  }

  void for_each_remaining(Action action) override {
    ensure_buffered();
    inner_->for_each_remaining(action);
  }

  std::pair<const T*, std::size_t> try_chunk(T* scratch,
                                             std::size_t max_n) override {
    ensure_buffered();
    return inner_->try_chunk(scratch, max_n);
  }

  std::unique_ptr<Spliterator<T>> try_split() override {
    ensure_buffered();
    return inner_->try_split();
  }

  std::uint64_t estimate_size() const override {
    // Probes buffer eagerly: sorted is a full barrier regardless, and the
    // buffer recovers exact sizing even when upstream obscured it — the
    // planner must see the same shape the drive will.
    ensure_buffered();
    return inner_->estimate_size();
  }

  Characteristics characteristics() const override {
    ensure_buffered();
    return inner_->characteristics() | kSorted;
  }

  std::optional<OutputWindow> try_output_window() const override {
    // Only the materialised buffer can name destination positions; the
    // unsorted upstream's window would misplace every element.
    ensure_buffered();
    return output_window_of(*inner_);
  }

  std::unique_ptr<FusedPipeline> strip_into_fused() override {
    // Materialise, then restart the fusion walk on the buffer: the
    // downstream stages fuse over a windowed array source.
    ensure_buffered();
    return fuse_pipeline<T>(inner_);
  }

 private:
  // Logically const: every observation of this spliterator goes through
  // the buffer, so materialising it early never changes what callers see.
  void ensure_buffered() const {
    if (inner_) return;
    auto values = std::make_shared<std::vector<T>>();
    upstream_->for_each_remaining([&](const T& v) { values->push_back(v); });
    std::sort(values->begin(), values->end(), cmp_);
    inner_ = std::make_unique<ArraySpliterator<T>>(
        std::shared_ptr<const std::vector<T>>(std::move(values)));
    upstream_.reset();
  }

  mutable std::unique_ptr<Spliterator<T>> upstream_;
  Cmp cmp_;
  // Spliterator-typed (not ArraySpliterator) so strip_into_fused can hand
  // it straight to fuse_pipeline.
  mutable std::unique_ptr<Spliterator<T>> inner_;
};

}  // namespace pls::streams
