// Source spliterators: array-backed, integer ranges, and generators.
//
// ArraySpliterator is the default source (the analogue of the spliterator
// Java derives from an ArrayList): it splits linearly in halves — in
// PowerList terms, the `tie` decomposition. Sources hold the storage via
// shared_ptr so splits and the pipelines built on them are lifetime-safe
// regardless of evaluation order.
#pragma once

#include <memory>
#include <vector>

#include "streams/spliterator.hpp"
#include "support/assert.hpp"

namespace pls::streams {

/// Spliterator over a contiguous [begin, end) window of a shared vector.
/// try_split carves off the first half ("segment" splitting, Section IV-A).
template <typename T>
class ArraySpliterator final : public Spliterator<T>, public WindowedSource {
 public:
  using Action = typename Spliterator<T>::Action;

  explicit ArraySpliterator(std::shared_ptr<const std::vector<T>> data)
      : data_(std::move(data)), begin_(0), end_(0) {
    PLS_CHECK(data_ != nullptr, "ArraySpliterator requires storage");
    end_ = data_->size();
  }

  ArraySpliterator(std::shared_ptr<const std::vector<T>> data,
                   std::size_t begin, std::size_t end)
      : data_(std::move(data)), begin_(begin), end_(end) {
    PLS_CHECK(data_ != nullptr, "ArraySpliterator requires storage");
    PLS_CHECK(begin_ <= end_ && end_ <= data_->size(),
              "ArraySpliterator window out of range");
  }

  bool try_advance(Action action) override {
    if (begin_ >= end_) return false;
    action((*data_)[begin_++]);
    return true;
  }

  void for_each_remaining(Action action) override {
    const std::vector<T>& v = *data_;
    for (std::size_t i = begin_; i < end_; ++i) action(v[i]);
    begin_ = end_;
  }

  std::pair<const T*, std::size_t> try_chunk(T*, std::size_t max_n) override {
    const std::size_t remaining = end_ - begin_;
    const std::size_t n = remaining < max_n ? remaining : max_n;
    if (n == 0) return {nullptr, 0};
    const T* p = data_->data() + begin_;
    begin_ += n;
    return {p, n};
  }

  std::unique_ptr<Spliterator<T>> try_split() override {
    const std::size_t remaining = end_ - begin_;
    if (remaining < 2) return nullptr;
    const std::size_t mid = begin_ + remaining / 2;
    auto prefix =
        std::make_unique<ArraySpliterator<T>>(data_, begin_, mid);
    begin_ = mid;
    return prefix;
  }

  std::uint64_t estimate_size() const override { return end_ - begin_; }

  Characteristics characteristics() const override {
    return kOrdered | kSized | kSubsized | kImmutable;
  }

  std::optional<OutputWindow> try_output_window() const override {
    return OutputWindow{begin_, 1, end_ - begin_};
  }

 private:
  std::shared_ptr<const std::vector<T>> data_;
  std::size_t begin_;
  std::size_t end_;
};

/// Spliterator over the integer range [begin, end).
template <typename I>
class RangeSpliterator final : public Spliterator<I>, public WindowedSource {
 public:
  using Action = typename Spliterator<I>::Action;

  RangeSpliterator(I begin, I end) : begin_(begin), end_(end) {
    PLS_CHECK(begin <= end, "RangeSpliterator requires begin <= end");
  }

  bool try_advance(Action action) override {
    if (begin_ >= end_) return false;
    action(begin_);
    ++begin_;
    return true;
  }

  void for_each_remaining(Action action) override {
    for (I i = begin_; i < end_; ++i) action(i);
    begin_ = end_;
  }

  std::unique_ptr<Spliterator<I>> try_split() override {
    if (end_ - begin_ < 2) return nullptr;
    const I mid = begin_ + (end_ - begin_) / 2;
    auto prefix = std::make_unique<RangeSpliterator<I>>(begin_, mid);
    begin_ = mid;
    return prefix;
  }

  std::uint64_t estimate_size() const override {
    return static_cast<std::uint64_t>(end_ - begin_);
  }

  Characteristics characteristics() const override {
    return kOrdered | kSized | kSubsized | kImmutable | kDistinct | kSorted;
  }

  std::optional<OutputWindow> try_output_window() const override {
    // Window coordinates are the range values themselves; unsigned
    // wrap-around for negative I cancels in the evaluator's rebasing.
    return OutputWindow{static_cast<std::uint64_t>(begin_), 1,
                        static_cast<std::uint64_t>(end_ - begin_)};
  }

 private:
  I begin_;
  I end_;
};

/// Spliterator producing f(i) for i in [begin, end) — a sized generator
/// (the analogue of IntStream.range(...).mapToObj(f) fused at the source).
template <typename T, typename Fn>
class GenerateSpliterator final : public Spliterator<T>,
                                  public WindowedSource {
 public:
  using Action = typename Spliterator<T>::Action;

  GenerateSpliterator(std::shared_ptr<const Fn> fn, std::uint64_t begin,
                      std::uint64_t end)
      : fn_(std::move(fn)), begin_(begin), end_(end) {
    PLS_CHECK(fn_ != nullptr, "GenerateSpliterator requires a generator");
    PLS_CHECK(begin <= end, "GenerateSpliterator requires begin <= end");
  }

  bool try_advance(Action action) override {
    if (begin_ >= end_) return false;
    action((*fn_)(begin_));
    ++begin_;
    return true;
  }

  void for_each_remaining(Action action) override {
    for (std::uint64_t i = begin_; i < end_; ++i) action((*fn_)(i));
    begin_ = end_;
  }

  std::unique_ptr<Spliterator<T>> try_split() override {
    if (end_ - begin_ < 2) return nullptr;
    const std::uint64_t mid = begin_ + (end_ - begin_) / 2;
    auto prefix =
        std::make_unique<GenerateSpliterator<T, Fn>>(fn_, begin_, mid);
    begin_ = mid;
    return prefix;
  }

  std::uint64_t estimate_size() const override { return end_ - begin_; }

  Characteristics characteristics() const override {
    return kOrdered | kSized | kSubsized | kImmutable;
  }

  std::optional<OutputWindow> try_output_window() const override {
    return OutputWindow{begin_, 1, end_ - begin_};
  }

 private:
  std::shared_ptr<const Fn> fn_;
  std::uint64_t begin_;
  std::uint64_t end_;
};

/// Concatenation of two spliterators: first's elements, then second's.
/// Splitting hands off the entire first part — the natural (and Java's)
/// strategy, giving parallel evaluation one clean boundary.
template <typename T>
class ConcatSpliterator final : public Spliterator<T> {
 public:
  using Action = typename Spliterator<T>::Action;

  ConcatSpliterator(std::unique_ptr<Spliterator<T>> first,
                    std::unique_ptr<Spliterator<T>> second)
      : first_(std::move(first)), second_(std::move(second)) {
    PLS_CHECK(first_ != nullptr && second_ != nullptr,
              "ConcatSpliterator requires both parts");
  }

  bool try_advance(Action action) override {
    if (first_ != nullptr) {
      if (first_->try_advance(action)) return true;
      first_.reset();
    }
    return second_->try_advance(action);
  }

  void for_each_remaining(Action action) override {
    if (first_ != nullptr) {
      first_->for_each_remaining(action);
      first_.reset();
    }
    second_->for_each_remaining(action);
  }

  /// Forwards to the first part until it is exhausted, then to the
  /// second. A first part that declines yields {nullptr, 0}, leaving the
  /// rest to for_each_remaining.
  std::pair<const T*, std::size_t> try_chunk(T* scratch,
                                             std::size_t max_n) override {
    if (first_ != nullptr) {
      const auto chunk = first_->try_chunk(scratch, max_n);
      if (chunk.first != nullptr) return chunk;
      if (!first_->has(kSized) || first_->estimate_size() != 0) {
        return {nullptr, 0};
      }
      first_.reset();
    }
    return second_->try_chunk(scratch, max_n);
  }

  std::unique_ptr<Spliterator<T>> try_split() override {
    if (first_ != nullptr) {
      return std::move(first_);  // the prefix is exactly the first part
    }
    return second_->try_split();
  }

  std::uint64_t estimate_size() const override {
    const std::uint64_t f = first_ != nullptr ? first_->estimate_size() : 0;
    return f + second_->estimate_size();
  }

  Characteristics characteristics() const override {
    Characteristics c = second_->characteristics();
    if (first_ != nullptr) c &= first_->characteristics();
    // Concatenation does not preserve sortedness/distinctness/POWER2, and
    // its first split (the two parts) does not interleave.
    return c & ~(kSorted | kDistinct | kPower2 | kInterleaved);
  }

 private:
  std::unique_ptr<Spliterator<T>> first_;  // null once consumed/split off
  std::unique_ptr<Spliterator<T>> second_;
};

}  // namespace pls::streams
