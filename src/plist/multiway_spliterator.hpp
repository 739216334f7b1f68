// Multiway spliterators: the Spliterator extension the paper proposes.
//
// Section V: "Since the definition of the Spliterator interface offers only
// the possibility to split the data in two parts (each time), the
// possibility to include also the PList extension, and so multi-way
// divide-and-conquer is not possible (yet). If the definition of the
// Spliterator would be extended with a trySplit method that returns a set
// of Spliterators that all together cover all the elements of the source,
// then the adaptation to PList would become possible."
//
// This header builds exactly that extension: MultiwaySpliterator adds
//   try_split_n(n) -> vector of n-1 prefix spliterators (this keeps the
//   last part),
// NTie/NZip implement it over strided windows, and evaluate_collect_multiway
// runs the collect template method over an n-ary task tree, folding the
// parts in encounter order with the collector's combiner.
#pragma once

#include <memory>
#include <vector>

#include "forkjoin/pool.hpp"
#include "streams/collector.hpp"
#include "streams/parallel_eval.hpp"
#include "streams/spliterator.hpp"
#include "support/assert.hpp"

namespace pls::plist {

/// Spliterator that can also split into n parts at once.
template <typename T>
class MultiwaySpliterator : public streams::Spliterator<T> {
 public:
  /// Partition off n-1 spliterators so that, together with this one (which
  /// keeps the *last* part), they cover all remaining elements in
  /// encounter order (returned[0] first, ..., this last). Returns an empty
  /// vector when the source cannot be split n ways.
  virtual std::vector<std::unique_ptr<streams::Spliterator<T>>> try_split_n(
      std::size_t n) = 0;

  /// Binary split defaults to try_split_n(2).
  std::unique_ptr<streams::Spliterator<T>> try_split() override {
    auto parts = try_split_n(2);
    if (parts.empty()) return nullptr;
    PLS_ASSERT(parts.size() == 1);
    return std::move(parts.front());
  }
};

namespace detail {

/// Shared strided-window plumbing for the two concrete multiway sources.
/// Like SpliteratorPower2, the (start, incr, count) triple doubles as the
/// destination window of the destination-passing collect: both n-way
/// split rules partition the parent's window (n-way tie keeps the stride,
/// n-way zip multiplies it by n), so the multi-way contract extends the
/// WindowedSource one — every part of try_split_n is itself windowed.
template <typename T>
class StridedMultiwayBase : public MultiwaySpliterator<T>,
                            public streams::WindowedSource {
 public:
  using Action = typename streams::Spliterator<T>::Action;

  StridedMultiwayBase(std::shared_ptr<const std::vector<T>> data,
                      std::size_t start, std::size_t incr, std::size_t count)
      : data_(std::move(data)), start_(start), incr_(incr), count_(count) {
    PLS_CHECK(data_ != nullptr, "multiway spliterator requires storage");
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
    return streams::kOrdered | streams::kSized | streams::kSubsized |
           streams::kImmutable;
  }

  std::optional<streams::OutputWindow> try_output_window() const override {
    return streams::OutputWindow{start_, incr_, count_};
  }

 protected:
  std::shared_ptr<const std::vector<T>> data_;
  std::size_t start_;
  std::size_t incr_;
  std::size_t count_;
};

}  // namespace detail

/// n-way segment splitting (the n-way tie operator).
template <typename T>
class NTieSpliterator final : public detail::StridedMultiwayBase<T> {
 public:
  using detail::StridedMultiwayBase<T>::StridedMultiwayBase;

  explicit NTieSpliterator(std::shared_ptr<const std::vector<T>> data)
      : detail::StridedMultiwayBase<T>(data, 0, 1, data ? data->size() : 0) {}

  std::vector<std::unique_ptr<streams::Spliterator<T>>> try_split_n(
      std::size_t n) override {
    if (n < 2 || this->count_ < n || this->count_ % n != 0) return {};
    const std::size_t part = this->count_ / n;
    std::vector<std::unique_ptr<streams::Spliterator<T>>> out;
    out.reserve(n - 1);
    for (std::size_t k = 0; k + 1 < n; ++k) {
      out.push_back(std::make_unique<NTieSpliterator<T>>(
          this->data_, this->start_ + this->incr_ * part * k, this->incr_,
          part));
    }
    this->start_ += this->incr_ * part * (n - 1);
    this->count_ = part;
    return out;
  }
};

/// n-way interleaved splitting (the n-way zip operator): part k holds the
/// elements at positions ≡ k (mod n); this keeps the last residue.
template <typename T>
class NZipSpliterator final : public detail::StridedMultiwayBase<T> {
 public:
  using detail::StridedMultiwayBase<T>::StridedMultiwayBase;

  explicit NZipSpliterator(std::shared_ptr<const std::vector<T>> data)
      : detail::StridedMultiwayBase<T>(data, 0, 1, data ? data->size() : 0) {}

  std::vector<std::unique_ptr<streams::Spliterator<T>>> try_split_n(
      std::size_t n) override {
    if (n < 2 || this->count_ < n || this->count_ % n != 0) return {};
    const std::size_t part = this->count_ / n;
    std::vector<std::unique_ptr<streams::Spliterator<T>>> out;
    out.reserve(n - 1);
    for (std::size_t k = 0; k + 1 < n; ++k) {
      out.push_back(std::make_unique<NZipSpliterator<T>>(
          this->data_, this->start_ + this->incr_ * k, this->incr_ * n,
          part));
    }
    this->start_ += this->incr_ * (n - 1);
    this->incr_ *= n;
    this->count_ = part;
    return out;
  }
};

namespace detail {

// Leaves of the multiway walks: plain pull loops over one chunk, with the
// same counter and trace feeds as the stream leaves.

template <typename T, typename C>
typename C::accumulation_type collect_leaf(streams::Spliterator<T>& sp,
                                           const C& c) {
  const std::uint64_t elems = sp.has(streams::kSized) ? sp.estimate_size() : 0;
  observe::Span span(observe::EventKind::kAccumulate, elems);
  observe::LatencyTimer leaf_timer(observe::Metric::kLeafRun);
  observe::local_counters().on_leaf(elems);
  auto acc = c.supply();
  observe::local_counters().on_allocation();
  sp.for_each_remaining([&](const T& value) { c.accumulate(acc, value); });
  return acc;
}

/// Writes the chunk's elements into its window of the shared sink,
/// rebased against the root window (the chunk may be a strided
/// sub-window of the result).
template <typename T, typename C>
  requires streams::SizedSinkCollector<C, T>
void collect_into_leaf(streams::Spliterator<T>& sp, const C& c,
                       typename C::sized_accumulation_type& sink,
                       const streams::OutputWindow& root) {
  const auto w = streams::output_window_of(sp);
  PLS_CHECK(w.has_value(),
            "windowed SUBSIZED source split into a non-windowed chunk");
  const std::uint64_t base = (w->start - root.start) / root.incr;
  const std::uint64_t step = w->incr / root.incr;
  PLS_CHECK(w->count == 0 || base + (w->count - 1) * step < root.count,
            "destination window exceeds the result buffer");
  observe::Span span(observe::EventKind::kAccumulate, w->count);
  observe::LatencyTimer leaf_timer(observe::Metric::kLeafRun);
  observe::local_counters().on_leaf(w->count);
  std::uint64_t k = 0;
  sp.for_each_remaining([&](const T& value) {
    c.accumulate_at(sink, base + k * step, value);
    ++k;
  });
  PLS_CHECK(k == w->count, "chunk yielded a different count than its window");
}

template <typename T, typename C>
typename C::accumulation_type collect_multiway_tree(
    forkjoin::ForkJoinPool& pool, streams::Spliterator<T>& sp, const C& c,
    std::size_t arity, std::uint64_t target) {
  using A = typename C::accumulation_type;
  if (sp.estimate_size() <= target) {
    return collect_leaf(sp, c);
  }
  auto* multiway = dynamic_cast<MultiwaySpliterator<T>*>(&sp);
  std::vector<std::unique_ptr<streams::Spliterator<T>>> prefixes;
  if (multiway != nullptr && arity > 2) {
    prefixes = multiway->try_split_n(arity);
  }
  if (prefixes.empty()) {
    // Fall back to binary splitting.
    auto prefix = sp.try_split();
    if (!prefix) return collect_leaf(sp, c);
    prefixes.push_back(std::move(prefix));
  }
  // Evaluate all parts (prefixes in order, then this) in parallel.
  const std::size_t parts = prefixes.size() + 1;
  std::vector<std::optional<A>> results(parts);
  std::vector<std::function<void()>> thunks;
  thunks.reserve(parts);
  for (std::size_t k = 0; k < prefixes.size(); ++k) {
    thunks.push_back([&, k] {
      results[k].emplace(collect_multiway_tree(pool, *prefixes[k], c, arity,
                                               target));
    });
  }
  thunks.push_back([&] {
    results[parts - 1].emplace(
        collect_multiway_tree(pool, sp, c, arity, target));
  });
  // Binary fork over the thunk list.
  struct Runner {
    forkjoin::ForkJoinPool& pool;
    std::vector<std::function<void()>>& thunks;
    void run(std::size_t lo, std::size_t hi) {  // [lo, hi)
      if (hi - lo == 1) {
        thunks[lo]();
        return;
      }
      const std::size_t mid = lo + (hi - lo) / 2;
      pool.invoke_two([&] { run(lo, mid); }, [&] { run(mid, hi); });
    }
  } runner{pool, thunks};
  runner.run(0, parts);
  // Fold left in encounter order with the collector's combiner.
  A acc = std::move(*results[0]);
  for (std::size_t k = 1; k < parts; ++k) {
    observe::local_counters().on_combine();
    c.combine(acc, *results[k]);
  }
  return acc;
}

/// Destination-passing multiway collect: every part writes into its own
/// window of the shared sink, so no fold runs at all — which is what
/// makes n-way *zip* reconstruction expressible here (the windows encode
/// the n-way interleaving that no pairwise combiner can).
template <typename T, typename C>
  requires streams::SizedSinkCollector<C, T>
void collect_into_multiway_tree(forkjoin::ForkJoinPool& pool,
                                streams::Spliterator<T>& sp, const C& c,
                                typename C::sized_accumulation_type& sink,
                                const streams::OutputWindow& root,
                                std::size_t arity, std::uint64_t target,
                                unsigned depth = 0) {
  if (sp.estimate_size() <= target) {
    collect_into_leaf(sp, c, sink, root);
    return;
  }
  auto* multiway = dynamic_cast<MultiwaySpliterator<T>*>(&sp);
  std::vector<std::unique_ptr<streams::Spliterator<T>>> prefixes;
  if (multiway != nullptr && arity > 2) {
    prefixes = multiway->try_split_n(arity);
  }
  if (prefixes.empty()) {
    auto prefix = sp.try_split();
    if (!prefix) {
      collect_into_leaf(sp, c, sink, root);
      return;
    }
    prefixes.push_back(std::move(prefix));
  }
  observe::local_counters().on_split(depth);
  const std::size_t parts = prefixes.size() + 1;
  std::vector<std::function<void()>> thunks;
  thunks.reserve(parts);
  for (std::size_t k = 0; k < prefixes.size(); ++k) {
    thunks.push_back([&, k] {
      collect_into_multiway_tree(pool, *prefixes[k], c, sink, root, arity,
                                 target, depth + 1);
    });
  }
  thunks.push_back([&] {
    collect_into_multiway_tree(pool, sp, c, sink, root, arity, target,
                               depth + 1);
  });
  struct Runner {
    forkjoin::ForkJoinPool& pool;
    std::vector<std::function<void()>>& thunks;
    void run(std::size_t lo, std::size_t hi) {  // [lo, hi)
      if (hi - lo == 1) {
        thunks[lo]();
        return;
      }
      const std::size_t mid = lo + (hi - lo) / 2;
      pool.invoke_two([&] { run(lo, mid); }, [&] { run(mid, hi); });
    }
  } runner{pool, thunks};
  runner.run(0, parts);
}

}  // namespace detail

/// Run a mutable reduction over a multiway source, splitting `arity` ways
/// at each level (binary fallback where the source refuses).
///
/// On the supplier/combiner path the parts fold pairwise left-to-right
/// with the collector's combiner, which is correct for tie-structured/
/// associative collectors (concat, sums, ...) but cannot express n-way
/// *zip* reconstruction (zip_join(a,b,c) != zip_all(zip_all(a,b),c)).
/// The destination-passing path lifts that restriction: when the
/// collector is a sized sink and the source is windowed, every part
/// writes straight into its interleaved window and no combiner runs —
/// so an NZipSpliterator source reconstructs correctly at any arity.
/// Supplier/combiner functions needing n-way zip must still use
/// PListFunction::combine_n (see plist/functions.hpp).
template <typename T, typename C>
typename C::result_type evaluate_collect_multiway(
    streams::Spliterator<T>& sp, const C& c, std::size_t arity, bool parallel,
    const streams::ExecutionConfig& cfg = {}) {
  PLS_CHECK(arity >= 2, "multiway evaluation needs arity >= 2");
  if constexpr (streams::SizedSinkCollector<C, T>) {
    if (cfg.sized_sink) {
      if (auto root = streams::plan_dps_window(sp)) {
        auto sink = c.supply_sized(root->count);
        if (!parallel) {
          detail::collect_into_leaf(sp, c, sink, *root);
        } else {
          auto& pool = cfg.effective_pool();
          const std::uint64_t target =
              cfg.target_size(root->count, pool.parallelism());
          pool.run([&] {
            detail::collect_into_multiway_tree(pool, sp, c, sink, *root,
                                               arity, target);
          });
        }
        return c.finish_sized(std::move(sink));
      }
    }
  }
  if (!parallel) {
    return c.finish(detail::collect_leaf(sp, c));
  }
  auto& pool = cfg.effective_pool();
  const std::uint64_t target =
      cfg.target_size(sp.estimate_size(), pool.parallelism());
  auto acc = pool.run([&] {
    return detail::collect_multiway_tree(pool, sp, c, arity, target);
  });
  return c.finish(std::move(acc));
}

}  // namespace pls::plist
