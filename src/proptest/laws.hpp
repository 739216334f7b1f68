// Law suites: executable statements of the algebraic contracts the library
// rests on, checked against arbitrary implementations.
//
//   check_spliterator_laws — the Spliterator contract (java.util.Spliterator
//     semantics): bulk/stepwise traversal agreement, SIZED bookkeeping,
//     SUBSIZED split-size conservation, split disjointness + coverage in
//     encounter order, and destination-window consistency for
//     WindowedSource implementations (windows of split children partition
//     the parent's window). With max_arity > 2 the same laws hold for the
//     n-way split (Spliterator::try_split_n, the paper's Section V
//     proposal) at Rand-drawn arities.
//
//   check_collector_laws — the Collector contract: combiner associativity
//     (any combine tree over any contiguous partition yields the single-
//     accumulator result), supplier identity, and — for sized-sink
//     collectors — equivalence of the destination-passing protocol with
//     the supplier/combiner fold.
//
// Both return PropStatus so they slot directly into proptest::check as the
// property body; the Rand argument drives partition and split choices so
// every proptest iteration exercises a different decomposition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "proptest/prop.hpp"
#include "streams/collector.hpp"
#include "streams/sized_sink.hpp"
#include "streams/spliterator.hpp"

namespace pls::proptest {

/// Consume every remaining element through for_each_remaining.
template <typename T>
std::vector<T> drain_bulk(streams::Spliterator<T>& sp) {
  std::vector<T> out;
  sp.for_each_remaining([&](const T& v) { out.push_back(v); });
  return out;
}

/// Consume every remaining element one try_advance at a time.
template <typename T>
std::vector<T> drain_stepwise(streams::Spliterator<T>& sp) {
  std::vector<T> out;
  while (sp.try_advance([&](const T& v) { out.push_back(v); })) {
  }
  return out;
}

/// The result positions a window covers, in window (encounter) order.
inline std::vector<std::uint64_t> window_positions(
    const streams::OutputWindow& w) {
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(w.count));
  for (std::uint64_t j = 0; j < w.count; ++j) {
    out.push_back(w.start + j * w.incr);
  }
  return out;
}

/// How a spliterator's try_split relates to encounter order.
///   kPrefix: the returned spliterator covers a strict prefix (tie-style
///     halving, array/range chunking) — concatenating leaf traversals in
///     prefix-first tree order reproduces the full encounter order.
///   kInterleaved: splits partition by position pattern (zip-style
///     even/odd), so leaf concatenation is a permutation of the source;
///     encounter positions are recoverable only through output windows.
enum class SplitOrder { kPrefix, kInterleaved };

namespace detail {

inline PropStatus law_fail(const std::string& law, const std::string& what) {
  return PropStatus::fail("[" + law + "] " + what);
}

/// One fully-drained leaf of a split tree: its traversal plus the window
/// it advertised before draining (when the source is windowed).
template <typename T>
struct SplitLeaf {
  std::optional<streams::OutputWindow> window;
  std::vector<T> values;
};

/// Recursively split `sp` under Rand-driven decisions, checking the split
/// laws at every node and appending leaf traversals (prefix subtree first)
/// to `leaves`. With max_arity 2 each split is try_split; above, it is
/// try_split_n at an arity drawn from [2, max_arity], whose n-1 parts
/// precede the remainder in encounter order. A refused split must leave
/// the source's size alone.
template <typename T>
PropStatus split_tree_check(streams::Spliterator<T>& sp, Rand& r,
                            unsigned depth, std::size_t max_arity,
                            std::vector<SplitLeaf<T>>& leaves) {
  const std::uint64_t before_estimate = sp.estimate_size();
  const bool sized = sp.has(streams::kSized);
  const bool subsized = sp.has(streams::kSized | streams::kSubsized);
  const std::optional<streams::OutputWindow> parent_window =
      streams::output_window_of(sp);

  // Stop splitting on a Rand coin (deeper levels stop more eagerly), so
  // iterations cover shallow and deep decompositions alike.
  const bool want_split = depth < 12 && r.chance(3, depth < 2 ? 3 : 4);
  std::vector<std::unique_ptr<streams::Spliterator<T>>> parts;
  std::size_t arity = 2;
  if (want_split && max_arity == 2) {
    if (auto prefix = sp.try_split()) parts.push_back(std::move(prefix));
  } else if (want_split) {
    arity = 2 + static_cast<std::size_t>(r.below(max_arity - 1));
    parts = sp.try_split_n(arity);
  }
  if (parts.empty()) {
    if (sp.estimate_size() != before_estimate) {
      return law_fail("split", "a refused split changed the source's size");
    }
    const std::uint64_t claimed = sp.estimate_size();
    const auto leaf_window = streams::output_window_of(sp);
    std::vector<T> chunk = drain_bulk(sp);
    if (sized && claimed != chunk.size()) {
      std::ostringstream os;
      os << "leaf claimed " << claimed << " elements but yielded "
         << chunk.size();
      return law_fail("sized-leaf", os.str());
    }
    if (sp.has(streams::kSized) && sp.estimate_size() != 0) {
      return law_fail("sized-leaf", "estimate_size nonzero after full drain");
    }
    leaves.push_back(SplitLeaf<T>{leaf_window, std::move(chunk)});
    return PropStatus::pass();
  }
  if (parts.size() != arity - 1) {
    std::ostringstream os;
    os << "try_split_n(" << arity << ") returned " << parts.size()
       << " parts";
    return law_fail("split-n", os.str());
  }
  std::vector<streams::Spliterator<T>*> children;
  for (auto& part : parts) children.push_back(part.get());
  children.push_back(&sp);

  if (subsized) {
    std::uint64_t sum = 0;
    for (const auto* child : children) {
      if (!child->has(streams::kSized)) {
        return law_fail("subsized", "split of a SUBSIZED source lost SIZED");
      }
      sum += child->estimate_size();
    }
    if (sum != before_estimate) {
      std::ostringstream os;
      os << "child sizes sum to " << sum << " != parent " << before_estimate;
      return law_fail("subsized", os.str());
    }
  }

  // Window law: when the parent names a window consistent with its size,
  // the children's windows must exist and partition it exactly.
  if (parent_window.has_value() && subsized &&
      parent_window->count == before_estimate) {
    std::vector<std::uint64_t> got;
    for (const auto* child : children) {
      const auto w = streams::output_window_of(*child);
      if (!w.has_value()) {
        return law_fail("window", "windowed parent split to windowless child");
      }
      if (w->count != child->estimate_size()) {
        return law_fail("window", "child window count != child size");
      }
      const std::vector<std::uint64_t> positions = window_positions(*w);
      got.insert(got.end(), positions.begin(), positions.end());
    }
    std::sort(got.begin(), got.end());
    if (std::adjacent_find(got.begin(), got.end()) != got.end()) {
      return law_fail("window", "child windows overlap");
    }
    std::vector<std::uint64_t> want = window_positions(*parent_window);
    std::sort(want.begin(), want.end());
    if (got != want) {
      return law_fail("window",
                      "child windows do not cover the parent window");
    }
  }

  for (auto* child : children) {
    if (PropStatus s = split_tree_check(*child, r, depth + 1, max_arity,
                                        leaves);
        !s.ok) {
      return s;
    }
  }
  return PropStatus::pass();
}

}  // namespace detail

/// Check the Spliterator contract for the spliterators produced by `make`
/// (each call must return a fresh spliterator over the same conceptual
/// source). Rand drives the split decisions. Pass
/// SplitOrder::kInterleaved for zip-style sources, whose splits permute
/// encounter order and carry it in output windows instead. A max_arity
/// above 2 checks the split tree through try_split_n.
template <typename T>
PropStatus check_spliterator_laws(
    const std::function<std::unique_ptr<streams::Spliterator<T>>()>& make,
    Rand& r, SplitOrder order = SplitOrder::kPrefix,
    std::size_t max_arity = 2) {
  auto bulk_sp = make();
  const std::vector<T> full = drain_bulk(*bulk_sp);

  {
    auto step_sp = make();
    const std::vector<T> stepped = drain_stepwise(*step_sp);
    if (stepped != full) {
      return detail::law_fail(
          "traversal", "try_advance and for_each_remaining sequences differ");
    }
    if (step_sp->try_advance([](const T&) {})) {
      return detail::law_fail("traversal",
                              "try_advance succeeded after exhaustion");
    }
  }

  {
    auto sized_sp = make();
    if (sized_sp->has(streams::kSized) &&
        sized_sp->estimate_size() != full.size()) {
      std::ostringstream os;
      os << "SIZED estimate " << sized_sp->estimate_size() << " != actual "
         << full.size();
      return detail::law_fail("sized", os.str());
    }
    const auto window = streams::output_window_of(*sized_sp);
    if (window.has_value() && sized_sp->has(streams::kSized) &&
        window->count != sized_sp->estimate_size()) {
      // Windows are allowed to be absent, but a present window must agree
      // with the size it claims to cover.
      std::ostringstream os;
      os << "window count " << window->count << " != estimate "
         << sized_sp->estimate_size();
      return detail::law_fail("window", os.str());
    }
  }

  auto tree_sp = make();
  const auto root_window = streams::output_window_of(*tree_sp);
  std::vector<detail::SplitLeaf<T>> leaves;
  if (PropStatus s =
          detail::split_tree_check(*tree_sp, r, 0, max_arity, leaves);
      !s.ok) {
    return s;
  }
  std::vector<T> concatenated;
  concatenated.reserve(full.size());
  for (const auto& leaf : leaves) {
    concatenated.insert(concatenated.end(), leaf.values.begin(),
                        leaf.values.end());
  }
  if (concatenated.size() != full.size()) {
    std::ostringstream os;
    os << "split-tree leaves yielded " << concatenated.size()
       << " elements, full traversal " << full.size()
       << " — splits lost or duplicated elements";
    return detail::law_fail("coverage", os.str());
  }
  if (order == SplitOrder::kPrefix && concatenated != full) {
    return detail::law_fail(
        "coverage",
        "prefix-order leaf concatenation differs from the full traversal");
  }
  // Placement law: when the root advertises an exact window, every leaf's
  // window maps its elements to encounter positions; scattering leaf
  // values through their windows must rebuild the full traversal. This is
  // the property the destination-passing collect rests on — and for
  // interleaved (zip-style) splits it is the *only* order guarantee.
  if (root_window.has_value() && root_window->count == full.size()) {
    std::vector<T> placed(full.size());
    std::vector<bool> hit(full.size(), false);
    for (const auto& leaf : leaves) {
      if (!leaf.window.has_value()) {
        return detail::law_fail("placement",
                                "windowed root produced a windowless leaf");
      }
      if (leaf.window->count != leaf.values.size()) {
        return detail::law_fail("placement",
                                "leaf window count != leaf traversal size");
      }
      const auto positions = window_positions(*leaf.window);
      for (std::size_t k = 0; k < positions.size(); ++k) {
        const std::uint64_t raw = positions[k] - root_window->start;
        if (raw % root_window->incr != 0) {
          return detail::law_fail(
              "placement", "leaf position off the root window's stride");
        }
        const std::uint64_t idx = raw / root_window->incr;
        if (idx >= full.size() || hit[static_cast<std::size_t>(idx)]) {
          return detail::law_fail(
              "placement", "leaf positions escape or overlap the root window");
        }
        hit[static_cast<std::size_t>(idx)] = true;
        placed[static_cast<std::size_t>(idx)] = leaf.values[k];
      }
    }
    if (placed != full) {
      return detail::law_fail(
          "placement",
          "window-scattered leaves do not rebuild the full traversal");
    }
  } else if (order == SplitOrder::kInterleaved) {
    // No window to recover order through: the weakest honest law is
    // multiset equality.
    std::vector<T> a = concatenated, b = full;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) {
      return detail::law_fail(
          "coverage", "leaf multiset differs from the full traversal");
    }
  }
  return PropStatus::pass();
}

namespace detail {

template <typename T, typename C>
typename C::accumulation_type fold_segment(const C& c,
                                           const std::vector<T>& input,
                                           std::size_t lo, std::size_t hi) {
  auto acc = c.supply();
  for (std::size_t i = lo; i < hi; ++i) c.accumulate(acc, input[i]);
  return acc;
}

/// Combine the segments of [seg_lo, seg_hi) under a Rand-shaped binary
/// tree, respecting segment (encounter) order.
template <typename T, typename C>
typename C::accumulation_type combine_tree(
    const C& c, const std::vector<T>& input,
    const std::vector<std::size_t>& bounds, std::size_t seg_lo,
    std::size_t seg_hi, Rand& r) {
  if (seg_hi - seg_lo == 1) {
    return fold_segment(c, input, bounds[seg_lo], bounds[seg_lo + 1]);
  }
  const std::size_t mid =
      seg_lo + 1 +
      static_cast<std::size_t>(r.below(seg_hi - seg_lo - 1));
  auto left = combine_tree(c, input, bounds, seg_lo, mid, r);
  auto right = combine_tree(c, input, bounds, mid, seg_hi, r);
  c.combine(left, right);
  return left;
}

}  // namespace detail

/// Check the Collector laws for `c` over `input`. Rand drives partition
/// boundaries and combine-tree shapes. The collector's result type must be
/// equality-comparable.
template <typename T, typename C>
PropStatus check_collector_laws(const C& c, const std::vector<T>& input,
                                Rand& r) {
  const auto reference = [&] {
    auto acc = detail::fold_segment(c, input, 0, input.size());
    return c.finish(std::move(acc));
  }();

  // Associativity over a random contiguous partition, combined two ways:
  // a strict left fold and a random binary tree.
  const std::size_t max_segments = input.size() < 7 ? input.size() + 1 : 8;
  const std::size_t segments =
      1 + static_cast<std::size_t>(r.below(max_segments));
  std::vector<std::size_t> bounds{0};
  for (std::size_t s = 1; s < segments; ++s) {
    bounds.push_back(static_cast<std::size_t>(r.below(input.size() + 1)));
  }
  bounds.push_back(input.size());
  std::sort(bounds.begin(), bounds.end());

  {
    auto acc = detail::fold_segment(c, input, bounds[0], bounds[1]);
    for (std::size_t s = 1; s + 1 < bounds.size(); ++s) {
      auto next = detail::fold_segment(c, input, bounds[s], bounds[s + 1]);
      c.combine(acc, next);
    }
    if (!(c.finish(std::move(acc)) == reference)) {
      return detail::law_fail("associativity",
                              "left-fold combine over a partition differs "
                              "from the single-accumulator result");
    }
  }
  {
    auto acc = detail::combine_tree(c, input, bounds, 0, bounds.size() - 1, r);
    if (!(c.finish(std::move(acc)) == reference)) {
      return detail::law_fail("associativity",
                              "tree-shaped combine over a partition differs "
                              "from the single-accumulator result");
    }
  }

  // Identity: a fresh supply() is a left and right identity of combine.
  {
    auto acc = detail::fold_segment(c, input, 0, input.size());
    auto empty = c.supply();
    c.combine(acc, empty);
    if (!(c.finish(std::move(acc)) == reference)) {
      return detail::law_fail("identity",
                              "combining with an empty right container "
                              "changed the result");
    }
  }
  {
    auto empty = c.supply();
    auto acc = detail::fold_segment(c, input, 0, input.size());
    c.combine(empty, acc);
    if (!(c.finish(std::move(empty)) == reference)) {
      return detail::law_fail("identity",
                              "combining into an empty left container "
                              "changed the result");
    }
  }

  // Sized-sink protocol ≡ supplier/combiner fold: writing each position
  // exactly once, in an arbitrary (Rand-shuffled) order, must produce the
  // same result as the sequential fold.
  if constexpr (streams::SizedSinkCollector<C, T>) {
    auto sink = c.supply_sized(input.size());
    std::vector<std::size_t> order(input.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(r.below(i))]);
    }
    for (std::size_t pos : order) {
      c.accumulate_at(sink, pos, input[pos]);
    }
    if (!(c.finish_sized(std::move(sink)) == reference)) {
      return detail::law_fail("sized-sink",
                              "destination-passing protocol differs from "
                              "the supplier/combiner fold");
    }
  }

  return PropStatus::pass();
}

}  // namespace pls::proptest
