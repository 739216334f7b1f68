// PListFunction: multi-way divide-and-conquer skeleton (the JPLF PList
// extension the paper cites as [21]).
//
// Generalises PowerFunction to arbitrary arities: a node of length L
// splits into arity(L) parts (the arity may differ level to level, as
// PList theory allows), contexts flow down through descend_n, and results
// recombine through the n-ary combine_n — which is also what a zip-based
// n-way function needs (pairwise folding cannot express n-way
// interleaving).
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "forkjoin/pool.hpp"
#include "observe/critical_path.hpp"
#include "plist/plist_view.hpp"
#include "powerlist/function.hpp"
#include "streams/plan.hpp"
#include "support/assert.hpp"

namespace pls::plist {

using powerlist::NoContext;

enum class NWayOp { kTie, kZip };

template <typename T, typename R, typename Ctx = NoContext>
class PListFunction {
 public:
  using input_type = T;
  using result_type = R;
  using context_type = Ctx;

  virtual ~PListFunction() = default;

  /// How many ways to split a node of this length (>= 2 to split; return
  /// anything that does not divide the length to force a leaf).
  virtual std::size_t arity(std::size_t length) const {
    (void)length;
    return 2;
  }

  virtual NWayOp decomposition() const { return NWayOp::kTie; }

  virtual R basic_case(PListView<const T> leaf, const Ctx& ctx) const = 0;

  /// Combine the n part results, in encounter order of the parts.
  virtual R combine_n(std::vector<R>&& parts, const Ctx& ctx,
                      std::size_t length) const = 0;

  /// Contexts for the n parts (default: n copies).
  virtual std::vector<Ctx> descend_n(const Ctx& ctx, std::size_t length,
                                     std::size_t n) const {
    (void)length;
    return std::vector<Ctx>(n, ctx);
  }
};

namespace detail {

/// One node of a PList walk: a view and (a pointer to) its context, which
/// the parent's parts or the entry point own.
template <typename T, typename Ctx>
struct PListNode {
  PListView<const T> view;
  const Ctx* ctx;
};

/// The parts of a split node and their descended contexts.
template <typename T, typename Ctx>
struct PListParts {
  std::vector<PListView<const T>> views;
  std::vector<Ctx> contexts;

  std::size_t size() const { return views.size(); }
  PListNode<T, Ctx> operator[](std::size_t k) const {
    return {views[k], &contexts[k]};
  }
};

/// `f`'s hooks on streams::split_walk: a node splits arity(length) ways
/// with the function's decomposition operator unless it is at most
/// `leaf_size` long or the arity does not divide it; leaves run
/// basic_case and the parts recombine with combine_n, both observed
/// (streams::observed_leaf / observed_combine). With `pool == nullptr`
/// the parts run inline, in encounter order.
template <typename T, typename R, typename Ctx>
R walk(forkjoin::ForkJoinPool* pool, const PListFunction<T, R, Ctx>& f,
       PListView<const T> input, const Ctx& ctx, std::size_t leaf_size,
       observe::CpNode* cp) {
  using Node = PListNode<T, Ctx>;
  return streams::split_walk(
      pool, Node{input, &ctx}, 0, cp,
      [&](const Node& node) -> std::optional<PListParts<T, Ctx>> {
        const std::size_t length = node.view.length();
        const std::size_t n = f.arity(length);
        if (length <= leaf_size || n < 2 || !node.view.divisible_by(n) ||
            length / n == 0 || length == 1) {
          return std::nullopt;
        }
        PListParts<T, Ctx> parts;
        parts.views = f.decomposition() == NWayOp::kTie ? node.view.tie_n(n)
                                                        : node.view.zip_n(n);
        parts.contexts = f.descend_n(*node.ctx, length, n);
        PLS_CHECK(parts.contexts.size() == n,
                  "descend_n must return arity contexts");
        return parts;
      },
      [&](const Node& node, observe::CpNode* at) {
        return streams::observed_leaf(node.view.length(), at, [&] {
          return f.basic_case(node.view, *node.ctx);
        });
      },
      [&](const Node& node, auto& results, unsigned depth,
          observe::CpNode* at) {
        std::vector<R> collected;
        collected.reserve(results.size());
        for (R& r : results) collected.push_back(std::move(r));
        return streams::observed_combine(depth, at, [&] {
          return f.combine_n(std::move(collected), *node.ctx,
                             node.view.length());
        });
      });
}

}  // namespace detail

template <typename T, typename R, typename Ctx>
R execute_sequential(const PListFunction<T, R, Ctx>& f,
                     PListView<const T> input, Ctx ctx = Ctx{},
                     std::size_t leaf_size = 1) {
  PLS_CHECK(leaf_size >= 1, "leaf size must be >= 1");
  return detail::walk(nullptr, f, input, ctx, leaf_size, nullptr);
}

/// Parallel execution; like powerlist::execute_forkjoin it records its
/// synthesized plan (with the root's arity) and appends one RunRecord.
template <typename T, typename R, typename Ctx>
R execute_forkjoin(forkjoin::ForkJoinPool& pool,
                   const PListFunction<T, R, Ctx>& f,
                   PListView<const T> input, Ctx ctx = Ctx{},
                   std::size_t leaf_size = 1) {
  PLS_CHECK(leaf_size >= 1, "leaf size must be >= 1");
  const auto arity = static_cast<unsigned>(f.arity(input.length()));
  return streams::run_synthesized(
      input.length(), leaf_size, pool.parallelism(), arity, [&] {
        observe::CpNode* cp = observe::cp_new_root();
        return pool.run(
            [&] { return detail::walk(&pool, f, input, ctx, leaf_size, cp); });
      });
}

// ---- example PList functions -----------------------------------------

/// n-way reduce: fold each part, combine the n partials in order.
template <typename T, typename Op>
class NWayReduce final : public PListFunction<T, T> {
 public:
  NWayReduce(Op op, std::size_t ways, NWayOp decomp = NWayOp::kTie)
      : op_(std::move(op)), ways_(ways), decomp_(decomp) {}

  std::size_t arity(std::size_t) const override { return ways_; }
  NWayOp decomposition() const override { return decomp_; }

  T basic_case(PListView<const T> leaf, const NoContext&) const override {
    T acc = leaf[0];
    for (std::size_t i = 1; i < leaf.length(); ++i) acc = op_(acc, leaf[i]);
    return acc;
  }

  T combine_n(std::vector<T>&& parts, const NoContext&,
              std::size_t) const override {
    T acc = std::move(parts[0]);
    for (std::size_t k = 1; k < parts.size(); ++k) {
      acc = op_(std::move(acc), parts[k]);
    }
    return acc;
  }

 private:
  Op op_;
  std::size_t ways_;
  NWayOp decomp_;
};

/// n-way map producing a vector, recombined with the decomposition
/// operator's construction counterpart (tie_join / zip_join).
template <typename T, typename U, typename Fn>
class NWayMap final : public PListFunction<T, std::vector<U>> {
 public:
  NWayMap(Fn fn, std::size_t ways, NWayOp decomp = NWayOp::kTie)
      : fn_(std::move(fn)), ways_(ways), decomp_(decomp) {}

  std::size_t arity(std::size_t) const override { return ways_; }
  NWayOp decomposition() const override { return decomp_; }

  std::vector<U> basic_case(PListView<const T> leaf,
                            const NoContext&) const override {
    std::vector<U> out;
    out.reserve(leaf.length());
    for (std::size_t i = 0; i < leaf.length(); ++i) out.push_back(fn_(leaf[i]));
    return out;
  }

  std::vector<U> combine_n(std::vector<std::vector<U>>&& parts,
                           const NoContext&, std::size_t) const override {
    return decomp_ == NWayOp::kTie ? tie_join(parts) : zip_join(parts);
  }

 private:
  Fn fn_;
  std::size_t ways_;
  NWayOp decomp_;
};

/// k-way merge of sorted runs (used by MultiwayMergeSort's combine).
template <typename T, typename Cmp = std::less<T>>
std::vector<T> kway_merge(const std::vector<std::vector<T>>& runs,
                          Cmp cmp = Cmp{}) {
  using Entry = std::pair<std::size_t, std::size_t>;  // (run, index)
  auto greater = [&](const Entry& a, const Entry& b) {
    return cmp(runs[b.first][b.second], runs[a.first][a.second]);
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(greater)> heap(
      greater);
  std::size_t total = 0;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    total += runs[r].size();
    if (!runs[r].empty()) heap.push({r, 0});
  }
  std::vector<T> out;
  out.reserve(total);
  while (!heap.empty()) {
    const auto [r, i] = heap.top();
    heap.pop();
    out.push_back(runs[r][i]);
    if (i + 1 < runs[r].size()) heap.push({r, i + 1});
  }
  return out;
}

/// Multi-way mergesort: n-way tie decomposition, k-way merge combine.
template <typename T, typename Cmp = std::less<T>>
class MultiwayMergeSort final : public PListFunction<T, std::vector<T>> {
 public:
  explicit MultiwayMergeSort(std::size_t ways, Cmp cmp = Cmp{})
      : ways_(ways), cmp_(std::move(cmp)) {}

  std::size_t arity(std::size_t) const override { return ways_; }
  NWayOp decomposition() const override { return NWayOp::kTie; }

  std::vector<T> basic_case(PListView<const T> leaf,
                            const NoContext&) const override {
    std::vector<T> out = leaf.to_vector();
    std::sort(out.begin(), out.end(), cmp_);
    return out;
  }

  std::vector<T> combine_n(std::vector<std::vector<T>>&& parts,
                           const NoContext&, std::size_t) const override {
    return kway_merge(parts, cmp_);
  }

 private:
  std::size_t ways_;
  Cmp cmp_;
};

}  // namespace pls::plist
