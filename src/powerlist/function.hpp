// PowerFunction: the divide-and-conquer skeleton of PowerList functions
// (the JPLF template method, Section III of the paper).
//
// A PowerList function is defined by cases on the structure of its
// argument:
//     f([a])    = basic case
//     f(p op q) = combine(f(p'), f(q'))      op ∈ {tie, zip}
// possibly transforming a context on the way down (the paper's "additional
// operations at the splitting phase", e.g. the polynomial example's
// x := x^2). Subclasses provide:
//   decomposition()  which operator splits the argument;
//   basic_case()     the leaf phase — executors may stop splitting above
//                    singletons, so it receives a whole sublist view;
//   combine()        the ascending phase;
//   descend()        context transformation at each split (optional);
// plus operation-count hooks that let the simulated executor price the
// task tree (see src/simmachine/).
//
// Execution is deliberately separate from definition (Section III): the
// same function object runs under the sequential, fork-join, simulated and
// mpisim executors. Implementations must therefore be safe to call
// concurrently — all hooks are const. A const hook that caches (as
// FftFunction's roots-of-unity table does) must fill the cache under
// std::call_once, so concurrent first calls see one complete fill.
#pragma once

#include <cstddef>
#include <utility>

#include "powerlist/view.hpp"

namespace pls::powerlist {

/// Context placeholder for functions that carry nothing down the tree.
struct NoContext {
  friend bool operator==(NoContext, NoContext) { return true; }
};

template <typename T, typename R, typename Ctx = NoContext>
class PowerFunction {
 public:
  using input_type = T;
  using result_type = R;
  using context_type = Ctx;

  virtual ~PowerFunction() = default;

  /// Which deconstruction operator splits the argument list.
  virtual DecompositionOp decomposition() const { return DecompositionOp::kTie; }

  /// Leaf phase: compute the function on a sublist where splitting
  /// stopped (length >= 1, a power of two).
  virtual R basic_case(PowerListView<const T> leaf, const Ctx& ctx) const = 0;

  /// Ascending phase: combine the results of the two halves of a node
  /// whose sublist had `length` elements and context `ctx`.
  virtual R combine(R&& left, R&& right, const Ctx& ctx,
                    std::size_t length) const = 0;

  /// Descending phase: contexts for the two halves (default: copy).
  virtual std::pair<Ctx, Ctx> descend(const Ctx& ctx,
                                      std::size_t length) const {
    (void)length;
    return {ctx, ctx};
  }

  // ---- cost hooks for the simulated executor (abstract operations) ----

  /// Operations performed by basic_case on a leaf of `len` elements.
  virtual double leaf_cost_ops(std::size_t len) const {
    return static_cast<double>(len);
  }
  /// Operations performed by descend at a node of `len` elements.
  virtual double descend_cost_ops(std::size_t len) const {
    (void)len;
    return 0.0;
  }
  /// Operations performed by combine at a node of `len` elements.
  virtual double combine_cost_ops(std::size_t len) const {
    (void)len;
    return 1.0;
  }
};

}  // namespace pls::powerlist
