// JPLF-compatibility layer: the framework of Section III, with its
// original shape.
//
// JPLF (the authors' Java framework, [19]-[21]) differs from this
// library's idiomatic PowerFunction in two ways that this header
// reproduces faithfully for users porting JPLF code:
//
//  1. the deconstruction operator belongs to the *list*, not the
//     function: TiePowerList and ZipPowerList know how to split
//     themselves;
//  2. the function object supplies create_left_function /
//     create_right_function — the sub-computations may be *different
//     function objects* (how JPLF threads descending-phase state such as
//     the polynomial's squared point, without a context parameter).
//
// The template method `compute` implements the solving strategy; the
// parallel variant forks the two sub-computations on a pool. Both run on
// the split-tree walk every skeleton shares (streams::split_walk).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>

#include "forkjoin/pool.hpp"
#include "observe/critical_path.hpp"
#include "powerlist/view.hpp"
#include "streams/plan.hpp"

namespace pls::powerlist::jplf {

/// Abstract PowerList: a view plus a self-deconstruction rule.
template <typename T>
class BasePowerList {
 public:
  explicit BasePowerList(PowerListView<const T> view) : view_(view) {}
  virtual ~BasePowerList() = default;

  std::size_t length() const { return view_.length(); }
  bool is_singleton() const { return view_.is_singleton(); }
  const PowerListView<const T>& view() const { return view_; }

  /// Deconstruct with this list's operator.
  virtual std::pair<std::unique_ptr<BasePowerList>,
                    std::unique_ptr<BasePowerList>>
  deconstruct() const = 0;

 protected:
  PowerListView<const T> view_;
};

/// A PowerList that deconstructs with tie (halves).
template <typename T>
class TiePowerList final : public BasePowerList<T> {
 public:
  using BasePowerList<T>::BasePowerList;

  std::pair<std::unique_ptr<BasePowerList<T>>,
            std::unique_ptr<BasePowerList<T>>>
  deconstruct() const override {
    const auto [l, r] = this->view_.tie();
    return {std::make_unique<TiePowerList<T>>(l),
            std::make_unique<TiePowerList<T>>(r)};
  }
};

/// A PowerList that deconstructs with zip (even/odd).
template <typename T>
class ZipPowerList final : public BasePowerList<T> {
 public:
  using BasePowerList<T>::BasePowerList;

  std::pair<std::unique_ptr<BasePowerList<T>>,
            std::unique_ptr<BasePowerList<T>>>
  deconstruct() const override {
    const auto [l, r] = this->view_.zip();
    return {std::make_unique<ZipPowerList<T>>(l),
            std::make_unique<ZipPowerList<T>>(r)};
  }
};

/// The JPLF PowerFunction: subclasses provide the four primitive
/// operations; `compute` is the template method.
template <typename T, typename R>
class JplfPowerFunction {
 public:
  virtual ~JplfPowerFunction() = default;

  /// Solve a basic case (length <= basic_threshold()).
  virtual R basic_case(const BasePowerList<T>& list) = 0;

  /// Combine the two sub-results.
  virtual R combine(R left, R right) = 0;

  /// Function objects for the two sub-computations. These may differ from
  /// *this — JPLF's way of performing descending-phase work.
  virtual std::unique_ptr<JplfPowerFunction> create_left_function() const = 0;
  virtual std::unique_ptr<JplfPowerFunction> create_right_function()
      const = 0;

  /// Lists at or below this length are basic cases.
  virtual std::size_t basic_threshold() const { return 1; }

  /// The template method: the divide-and-conquer solving strategy.
  R compute(const BasePowerList<T>& list) { return walk(nullptr, list); }

  /// Parallel solving strategy: same decomposition, the two
  /// sub-computations forked on the pool. Sub-function objects are
  /// per-branch (fresh from create_*_function), so no sharing is needed;
  /// basic_case/combine of *distinct objects* run concurrently. Like
  /// execute_forkjoin, the run records its synthesized plan (grain: this
  /// function's basic_threshold()) and appends one RunRecord.
  R compute_parallel(forkjoin::ForkJoinPool& pool,
                     const BasePowerList<T>& list) {
    return streams::run_synthesized(
        list.length(), basic_threshold(), pool.parallelism(), 2, [&] {
          observe::CpNode* cp = observe::cp_new_root();
          return pool.run([&] { return walk(&pool, list, cp); });
        });
  }

 private:
  /// One node of the walk: the list and the function object solving it.
  struct Node {
    JplfPowerFunction* fn;
    const BasePowerList<T>* list;
  };

  /// A split node's deconstructed halves and their function objects.
  struct Parts {
    std::unique_ptr<BasePowerList<T>> lists[2];
    std::unique_ptr<JplfPowerFunction> fns[2];

    std::size_t size() const { return 2; }
    Node operator[](std::size_t k) const {
      return {fns[k].get(), lists[k].get()};
    }
  };

  /// The JPLF hooks on streams::split_walk: each node's own
  /// basic_threshold() decides its leaf, its list deconstructs itself,
  /// and its create_*_function objects solve the halves.
  R walk(forkjoin::ForkJoinPool* pool, const BasePowerList<T>& list,
         observe::CpNode* cp = nullptr) {
    return streams::split_walk(
        pool, Node{this, &list}, 0, cp,
        [](const Node& node) -> std::optional<Parts> {
          if (node.list->length() <= node.fn->basic_threshold()) {
            return std::nullopt;
          }
          Parts parts;
          std::tie(parts.lists[0], parts.lists[1]) = node.list->deconstruct();
          parts.fns[0] = node.fn->create_left_function();
          parts.fns[1] = node.fn->create_right_function();
          return parts;
        },
        [](const Node& node, observe::CpNode* at) {
          return streams::observed_leaf(node.list->length(), at, [&] {
            return node.fn->basic_case(*node.list);
          });
        },
        [](const Node& node, auto& halves, unsigned depth,
           observe::CpNode* at) {
          return streams::observed_combine(depth, at, [&] {
            return node.fn->combine(std::move(halves[0]),
                                    std::move(halves[1]));
          });
        });
  }
};

}  // namespace pls::powerlist::jplf
