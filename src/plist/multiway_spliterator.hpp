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
// That extension is streams::Spliterator::try_split_n (n-1 prefix parts;
// this keeps the last). NTie/NZip implement it over the strided windows of
// powerlist::SpliteratorPower2, and evaluate_collect_multiway runs a
// collect through the streams split-tree walk with the plan's arity set,
// so a multiway run is planned, recorded and profiled like any terminal.
#pragma once

#include <memory>
#include <vector>

#include "powerlist/spliterators.hpp"
#include "streams/parallel_eval.hpp"
#include "support/assert.hpp"

namespace pls::plist {

/// n-way segment splitting (the n-way tie operator). Both n-way split
/// rules partition the parent's (start, incr, count) window — n-way tie
/// keeps the stride, n-way zip multiplies it by n — so every part of
/// try_split_n is itself windowed for the destination-passing collect.
/// The binary try_split is the 2-way split.
template <typename T>
class NTieSpliterator final : public powerlist::SpliteratorPower2<T> {
 public:
  using powerlist::SpliteratorPower2<T>::SpliteratorPower2;

  explicit NTieSpliterator(std::shared_ptr<const std::vector<T>> data)
      : powerlist::SpliteratorPower2<T>(data, 0, 1, data ? data->size() : 0) {
  }

  std::unique_ptr<streams::Spliterator<T>> try_split() override {
    auto parts = try_split_n(2);
    return parts.empty() ? nullptr : std::move(parts.front());
  }

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
class NZipSpliterator final : public powerlist::SpliteratorPower2<T> {
 public:
  using powerlist::SpliteratorPower2<T>::SpliteratorPower2;

  explicit NZipSpliterator(std::shared_ptr<const std::vector<T>> data)
      : powerlist::SpliteratorPower2<T>(data, 0, 1, data ? data->size() : 0) {
  }

  /// INTERLEAVED like the binary ZipSpliterator: the planner then admits
  /// its window to the destination-passing collect at any size, since no
  /// pairwise fold restores the source order of its parts.
  streams::Characteristics characteristics() const override {
    return powerlist::SpliteratorPower2<T>::characteristics() |
           streams::kInterleaved;
  }

  std::unique_ptr<streams::Spliterator<T>> try_split() override {
    auto parts = try_split_n(2);
    return parts.empty() ? nullptr : std::move(parts.front());
  }

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

/// Run a mutable reduction over `sp` (consumed, as by streams::evaluate),
/// splitting `arity` ways at each level where the source can and in two
/// where it refuses. This is an ordinary collect terminal: the planner
/// decides DPS and grain, the plan (carrying the arity) is recorded with
/// one RunRecord, and streams::split_walk walks it.
///
/// On the supplier/combiner path the parts of each split combine pairwise
/// in a balanced tree over encounter order. The collector associativity
/// law makes that equal to a left fold, so tie-structured and associative
/// collectors (concat, sums, ...) are correct at any arity — but no
/// pairwise combiner expresses n-way *zip* reconstruction
/// (zip_join(a,b,c) != zip_all(zip_all(a,b),c)). The destination-passing
/// path lifts that restriction: when the collector is a sized sink and the
/// source is windowed, every part writes straight into its interleaved
/// window and no combiner runs — so an NZipSpliterator source reconstructs
/// correctly at any arity. Supplier/combiner functions needing n-way zip
/// must still use PListFunction::combine_n (see plist/functions.hpp).
template <typename T, typename C>
typename C::result_type evaluate_collect_multiway(
    std::unique_ptr<streams::Spliterator<T>>& sp, const C& c,
    std::size_t arity, bool parallel,
    const streams::ExecutionConfig& cfg = {}) {
  PLS_CHECK(arity >= 2, "multiway evaluation needs arity >= 2");
  PLS_CHECK(sp != nullptr, "multiway evaluation requires a source");
  auto fused = streams::fuse_source(std::move(sp));
  return streams::evaluate<T>(*fused, streams::terminals::collect(c),
                              parallel, cfg, streams::PlanOrigin::kDynamic,
                              static_cast<unsigned>(arity));
}

}  // namespace pls::plist
