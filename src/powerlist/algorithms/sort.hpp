// Sorting networks over PowerLists: Batcher odd-even mergesort and bitonic
// sort (two of the functions Section III lists as expressible in the
// PowerList theory).
//
// Batcher's odd-even mergesort:
//   bsort(p | q)  = bmerge(bsort(p), bsort(q))
//   bmerge(x, y)  = zip-recursive: merge the even subsequences and the odd
//                   subsequences, interleave, then compare-exchange
//                   adjacent interior pairs.
// Bitonic sort:
//   sort ascending/descending halves (tie), then clean the bitonic
//   sequence with log n compare-exchange passes.
//
// Both are comparison networks: data-independent compare-exchange
// patterns, which is what makes them PowerList-expressible.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "forkjoin/pool.hpp"
#include "powerlist/function.hpp"
#include "powerlist/view.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"

namespace pls::powerlist {

namespace detail {

template <typename T, typename Cmp>
void compare_exchange(T& lo, T& hi, const Cmp& cmp) {
  if (cmp(hi, lo)) std::swap(lo, hi);
}

}  // namespace detail

/// Batcher odd-even merge of two sorted power-of-two vectors of equal
/// length; returns the sorted concatenation.
template <typename T, typename Cmp = std::less<T>>
std::vector<T> odd_even_merge(const std::vector<T>& a,
                              const std::vector<T>& b, Cmp cmp = Cmp{}) {
  PLS_CHECK(a.size() == b.size() && is_power_of_two(a.size()),
            "odd_even_merge requires similar power-of-two inputs");
  const std::size_t n = a.size();
  if (n == 1) {
    std::vector<T> out{a[0], b[0]};
    detail::compare_exchange(out[0], out[1], cmp);
    return out;
  }
  std::vector<T> a_even, a_odd, b_even, b_odd;
  a_even.reserve(n / 2);
  a_odd.reserve(n / 2);
  b_even.reserve(n / 2);
  b_odd.reserve(n / 2);
  for (std::size_t i = 0; i < n; i += 2) {
    a_even.push_back(a[i]);
    a_odd.push_back(a[i + 1]);
    b_even.push_back(b[i]);
    b_odd.push_back(b[i + 1]);
  }
  const std::vector<T> evens = odd_even_merge(a_even, b_even, cmp);
  const std::vector<T> odds = odd_even_merge(a_odd, b_odd, cmp);
  std::vector<T> out(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    out[2 * i] = evens[i];
    out[2 * i + 1] = odds[i];
  }
  for (std::size_t i = 1; i + 1 < out.size(); i += 2) {
    detail::compare_exchange(out[i], out[i + 1], cmp);
  }
  return out;
}

/// Batcher odd-even mergesort as a PowerFunction: tie decomposition, the
/// merge network as the combining phase.
template <typename T, typename Cmp = std::less<T>>
class BatcherSortFunction final
    : public PowerFunction<T, std::vector<T>> {
 public:
  explicit BatcherSortFunction(Cmp cmp = Cmp{}) : cmp_(std::move(cmp)) {}

  DecompositionOp decomposition() const override {
    return DecompositionOp::kTie;
  }

  std::vector<T> basic_case(PowerListView<const T> leaf,
                            const NoContext&) const override {
    std::vector<T> out = leaf.to_vector();
    std::sort(out.begin(), out.end(), cmp_);
    return out;
  }

  std::vector<T> combine(std::vector<T>&& left, std::vector<T>&& right,
                         const NoContext&, std::size_t) const override {
    return odd_even_merge(left, right, cmp_);
  }

  double leaf_cost_ops(std::size_t len) const override {
    return static_cast<double>(len) * (1.0 + floor_log2(len));
  }
  double combine_cost_ops(std::size_t len) const override {
    // The merge network on len elements has O(len log len) comparators.
    return static_cast<double>(len) * (1.0 + floor_log2(len));
  }

 private:
  Cmp cmp_;
};

/// Clean a bitonic sequence in [lo, lo+n): after this, it is sorted.
template <typename T, typename Cmp>
void bitonic_clean(std::vector<T>& v, std::size_t lo, std::size_t n,
                   bool ascending, const Cmp& cmp) {
  if (n < 2) return;
  const std::size_t half = n / 2;
  for (std::size_t i = lo; i < lo + half; ++i) {
    const bool out_of_order = ascending ? cmp(v[i + half], v[i])
                                        : cmp(v[i], v[i + half]);
    if (out_of_order) std::swap(v[i], v[i + half]);
  }
  bitonic_clean(v, lo, half, ascending, cmp);
  bitonic_clean(v, lo + half, half, ascending, cmp);
}

namespace detail {

template <typename T, typename Cmp>
void bitonic_sort_rec(std::vector<T>& v, std::size_t lo, std::size_t n,
                      bool ascending, const Cmp& cmp,
                      forkjoin::ForkJoinPool* pool, std::size_t grain) {
  if (n < 2) return;
  const std::size_t half = n / 2;
  if (pool != nullptr && n > grain) {
    pool->invoke_two(
        [&] { bitonic_sort_rec(v, lo, half, true, cmp, pool, grain); },
        [&] {
          bitonic_sort_rec(v, lo + half, half, false, cmp, pool, grain);
        });
  } else {
    bitonic_sort_rec(v, lo, half, true, cmp, nullptr, grain);
    bitonic_sort_rec(v, lo + half, half, false, cmp, nullptr, grain);
  }
  bitonic_clean(v, lo, n, ascending, cmp);
}

}  // namespace detail

/// Bitonic sort (sequential). Size must be a power of two.
template <typename T, typename Cmp = std::less<T>>
void bitonic_sort(std::vector<T>& v, Cmp cmp = Cmp{}) {
  PLS_CHECK(is_power_of_two(v.size()),
            "bitonic_sort requires a power-of-two size");
  detail::bitonic_sort_rec(v, 0, v.size(), true, cmp, nullptr, 0);
}

/// Odd-even transposition sort: n rounds of alternating compare-exchange
/// phases (the simplest PowerList-expressible sorting network, the 1-D
/// systolic sort). O(n^2) comparators but O(n) depth with O(n)
/// processors; each phase's exchanges are independent, so a phase maps
/// to a parallel loop. Kept sequential here as the didactic reference.
template <typename T, typename Cmp = std::less<T>>
void odd_even_transposition_sort(std::vector<T>& v, Cmp cmp = Cmp{}) {
  const std::size_t n = v.size();
  for (std::size_t round = 0; round < n; ++round) {
    const std::size_t start = round % 2;  // even phase, odd phase, ...
    for (std::size_t i = start; i + 1 < n; i += 2) {
      detail::compare_exchange(v[i], v[i + 1], cmp);
    }
  }
}

/// Bitonic sort with the two half-sorts forked on a pool; chunks of at
/// most `grain` elements sort sequentially.
template <typename T, typename Cmp = std::less<T>>
void bitonic_sort_parallel(forkjoin::ForkJoinPool& pool, std::vector<T>& v,
                           std::size_t grain = 1024, Cmp cmp = Cmp{}) {
  PLS_CHECK(is_power_of_two(v.size()),
            "bitonic_sort requires a power-of-two size");
  pool.run([&] {
    detail::bitonic_sort_rec(v, 0, v.size(), true, cmp, &pool, grain);
  });
}

}  // namespace pls::powerlist
