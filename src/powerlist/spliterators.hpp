// TieSpliterator and ZipSpliterator: the spliterator specialisations of
// Section IV-A (Figure 1 of the paper).
//
// Both derive from SpliteratorPower2, which models a strided window over
// shared storage as (start, increment, count) and contributes the POWER2
// characteristic whenever the remaining element count is a power of two —
// the admission test for applying PowerList functions to a stream.
//
//   TieSpliterator::try_split  — carves off the first half, same stride
//                                (the default "segment" partitioning).
//   ZipSpliterator::try_split  — carves off the even-position elements
//                                (stride doubles; this keeps the odds),
//                                exactly the paper's PZipSpliterator logic.
//
// Subclasses may override on_split() to perform the paper's "additional
// operations at the splitting phase", and for_each_remaining() to
// specialise the basic-case computation on the sublists where splitting
// stopped (Section V). The fused evaluator pulls try_chunk() before
// for_each_remaining(), so such a subclass must also override try_chunk()
// (to decline, or to apply the same computation).
#pragma once

#include <memory>
#include <vector>

#include "streams/spliterator.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace pls::powerlist {

/// Base for PowerList spliterators: a strided view (start, incr, count)
/// over shared storage, plus the POWER2 characteristic.
///
/// The (start, incr, count) triple doubles as the destination window of
/// the destination-passing collect (streams::WindowedSource): the root's
/// encounter order is storage order, and both split rules transform the
/// triple exactly the way the result positions partition — tie keeps the
/// stride and halves the count, zip doubles the stride — so a leaf's
/// source window *is* its output window.
template <typename T>
class SpliteratorPower2 : public streams::Spliterator<T>,
                          public streams::WindowedSource {
 public:
  using Action = typename streams::Spliterator<T>::Action;

  SpliteratorPower2(std::shared_ptr<const std::vector<T>> data,
                    std::size_t start, std::size_t incr, std::size_t count)
      : data_(std::move(data)), start_(start), incr_(incr), count_(count) {
    PLS_CHECK(data_ != nullptr, "SpliteratorPower2 requires storage");
    PLS_CHECK(incr >= 1, "increment must be >= 1");
    PLS_CHECK(count == 0 || start + (count - 1) * incr < data_->size(),
              "strided window exceeds storage");
  }

  bool try_advance(Action action) override {
    if (count_ == 0) return false;
    action((*data_)[start_]);
    start_ += incr_;
    --count_;
    return true;
  }

  void for_each_remaining(Action action) override {
    const std::vector<T>& v = *data_;
    std::size_t idx = start_;
    for (std::size_t k = 0; k < count_; ++k, idx += incr_) action(v[idx]);
    start_ = idx;
    count_ = 0;
  }

  std::uint64_t estimate_size() const override { return count_; }

  streams::Characteristics characteristics() const override {
    streams::Characteristics c = streams::kOrdered | streams::kSized |
                                 streams::kSubsized | streams::kImmutable;
    if (is_power_of_two(count_)) c |= streams::kPower2;
    return c;
  }

  std::optional<streams::OutputWindow> try_output_window() const override {
    return streams::OutputWindow{start_, incr_, count_};
  }

  /// Unit-stride windows are contiguous storage: hand the span straight to
  /// the fused chunk transport (and its SIMD collector kernels) with no
  /// copy. Strided windows (zip split products) gather the next span into
  /// `scratch` in one tight loop, so they reach the same kernels at one
  /// copy per element and no per-element call.
  std::pair<const T*, std::size_t> try_chunk(T* scratch,
                                             std::size_t max_n) override {
    const std::size_t n = count_ < max_n ? count_ : max_n;
    if (n == 0 || (incr_ != 1 && scratch == nullptr)) return {nullptr, 0};
    const T* src = data_->data() + start_;
    const T* out = src;
    if (incr_ != 1) {
      const std::size_t incr = incr_;  // stores to scratch may alias incr_
      for (std::size_t k = 0; k < n; ++k) scratch[k] = src[k * incr];
      out = scratch;
    }
    start_ += n * incr_;
    count_ -= n;
    return {out, n};
  }

  std::size_t start() const noexcept { return start_; }
  std::size_t increment() const noexcept { return incr_; }
  std::size_t count() const noexcept { return count_; }
  const std::shared_ptr<const std::vector<T>>& storage() const noexcept {
    return data_;
  }

 protected:
  std::shared_ptr<const std::vector<T>> data_;
  std::size_t start_;
  std::size_t incr_;
  std::size_t count_;
};

/// Linear ("segment") splitting — the PowerList tie operator.
template <typename T>
class TieSpliterator : public SpliteratorPower2<T> {
 public:
  using SpliteratorPower2<T>::SpliteratorPower2;

  explicit TieSpliterator(std::shared_ptr<const std::vector<T>> data)
      : SpliteratorPower2<T>(data, 0, 1, data ? data->size() : 0) {}

  std::unique_ptr<streams::Spliterator<T>> try_split() override {
    if (this->count_ < 2) return nullptr;
    const std::size_t half = this->count_ / 2;
    this->on_split();
    auto prefix = this->make_like(this->data_, this->start_, this->incr_,
                                  half);
    this->start_ += this->incr_ * half;
    this->count_ -= half;
    return prefix;
  }

 protected:
  /// Splitting-phase hook (no-op by default).
  virtual void on_split() {}

  /// Factory for the prefix spliterator; override so split products keep
  /// the derived type.
  virtual std::unique_ptr<streams::Spliterator<T>> make_like(
      std::shared_ptr<const std::vector<T>> data, std::size_t start,
      std::size_t incr, std::size_t count) {
    return std::make_unique<TieSpliterator<T>>(std::move(data), start, incr,
                                               count);
  }
};

/// Interleaved splitting — the PowerList zip operator. The prefix takes
/// the even-position elements (stride doubled); this keeps the odds.
template <typename T>
class ZipSpliterator : public SpliteratorPower2<T> {
 public:
  using SpliteratorPower2<T>::SpliteratorPower2;

  explicit ZipSpliterator(std::shared_ptr<const std::vector<T>> data)
      : SpliteratorPower2<T>(data, 0, 1, data ? data->size() : 0) {}

  /// Zip siblings stride through the same storage: INTERLEAVED, which
  /// steers the planner to one leaf per worker (streams/plan.hpp).
  streams::Characteristics characteristics() const override {
    return SpliteratorPower2<T>::characteristics() | streams::kInterleaved;
  }

  std::unique_ptr<streams::Spliterator<T>> try_split() override {
    // Zip only deconstructs even-length lists (PowerLists always are).
    if (this->count_ < 2 || this->count_ % 2 != 0) return nullptr;
    const std::size_t half = this->count_ / 2;
    this->on_split();
    auto prefix = this->make_like(this->data_, this->start_,
                                  this->incr_ * 2, half);
    this->start_ += this->incr_;
    this->incr_ *= 2;
    this->count_ = half;
    return prefix;
  }

 protected:
  virtual void on_split() {}

  virtual std::unique_ptr<streams::Spliterator<T>> make_like(
      std::shared_ptr<const std::vector<T>> data, std::size_t start,
      std::size_t incr, std::size_t count) {
    return std::make_unique<ZipSpliterator<T>>(std::move(data), start, incr,
                                               count);
  }
};

}  // namespace pls::powerlist
