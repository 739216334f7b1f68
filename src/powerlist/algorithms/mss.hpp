// Maximum segment sum as a PowerList homomorphism.
//
// The related-work section of the paper points to list homomorphisms
// (Bird-Meertens / Cole) as the formal kin of PowerList D&C: "they allow
// representations as compositions between map and reduce functionals."
// MSS is the canonical almost-homomorphism: it becomes a true reduce
// after tupling each element into (mss, best prefix, best suffix, total),
// so it runs on the unchanged ReduceFunction/tie machinery.
#pragma once

#include <algorithm>
#include <vector>

#include "powerlist/algorithms/map_reduce.hpp"
#include "powerlist/executors.hpp"
#include "powerlist/view.hpp"

namespace pls::powerlist {

/// The MSS tuple: all four quantities needed to combine segments.
/// Empty segments are allowed (all values >= 0 is not assumed; the empty
/// segment contributes sum 0).
template <typename T>
struct MssState {
  T best{};    ///< maximum segment sum within this part
  T prefix{};  ///< maximum sum of a prefix
  T suffix{};  ///< maximum sum of a suffix
  T total{};   ///< sum of the whole part

  static MssState of(T value) {
    const T clamped = std::max(value, T{});
    return MssState{clamped, clamped, clamped, value};
  }

  friend MssState mss_combine(const MssState& l, const MssState& r) {
    MssState out;
    out.best = std::max({l.best, r.best, l.suffix + r.prefix});
    out.prefix = std::max(l.prefix, l.total + r.prefix);
    out.suffix = std::max(r.suffix, r.total + l.suffix);
    out.total = l.total + r.total;
    return out;
  }

  friend bool operator==(const MssState&, const MssState&) = default;
};

/// Sequential reference: Kadane's algorithm (empty segment allowed).
template <typename TV, typename T = std::remove_const_t<TV>>
T mss_sequential(PowerListView<TV> p) {
  T best{};
  T running{};
  for (std::size_t i = 0; i < p.length(); ++i) {
    running = std::max(T{}, running + p[i]);
    best = std::max(best, running);
  }
  return best;
}

/// MSS as a tie-based PowerFunction over the tupled monoid.
template <typename T>
class MssFunction final : public PowerFunction<T, MssState<T>> {
 public:
  /// The leaf's tuple in one Kadane-style pass: the running sum, the
  /// highest prefix sum (clamped at the empty prefix's 0), Kadane's best
  /// segment ending here (clamped at the empty segment) — which at the
  /// end is the best suffix — and the best segment. Over integers this
  /// equals the fold of MssState::of through mss_combine, field by field.
  MssState<T> basic_case(PowerListView<const T> leaf,
                         const NoContext&) const override {
    T sum{}, prefix{}, running{}, best{};
    for (std::size_t i = 0; i < leaf.length(); ++i) {
      const T v = leaf[i];
      sum += v;
      prefix = std::max(prefix, sum);
      running = std::max(T{}, running + v);
      best = std::max(best, running);
    }
    return MssState<T>{best, prefix, running, sum};
  }

  MssState<T> combine(MssState<T>&& l, MssState<T>&& r, const NoContext&,
                      std::size_t) const override {
    return mss_combine(l, r);
  }
};

/// Convenience: maximum segment sum of a PowerList, sequential executor.
template <typename TV, typename T = std::remove_const_t<TV>>
T mss(PowerListView<TV> p, std::size_t leaf_size = 1) {
  MssFunction<T> f;
  return execute_sequential(f, PowerListView<const T>(p), {}, leaf_size)
      .best;
}

}  // namespace pls::powerlist
