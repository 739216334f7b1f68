// Critical-path profiler for real fork-join executions.
//
// The tree walkers (streams/parallel_eval.hpp, powerlist/executors.hpp)
// mirror their split recursion into this recorder when it is enabled: one
// CpNode per tree node, with the time each node spent in its three phases
// (split / accumulate / combine) measured on whichever worker actually ran
// that phase. From the finished tree the recorder computes
//   work T1           sum of all phase times (total busy time),
//   span T∞           the critical path: split + max(children) + combine,
//   parallelism       T1 / T∞ (the maximum useful core count),
//   phase attribution where T1 went (split vs accumulate vs combine),
// and, given the run's wall time and worker count, the steal/idle residue
// P·wall − T1. These are the measured counterparts of the simmachine's
// predicted quantities (SimResult.work_ns / span_ns), so a real run can be
// checked against the Brent bound T_P ≤ T1/P + T∞ computed from the same
// pipeline — docs/benchmarking.md walks through the comparison.
//
// Recording discipline: nodes are allocated under a mutex (one allocation
// per split — far off the hot path) and handed out as stable pointers (the
// arena is a std::deque, whose growth never moves existing elements), so
// phase-time updates are plain stores to fields only the worker executing
// that node's phase writes. Analysis runs strictly after the run.
//
// The recorder is runtime-gated like the trace recorder: when disabled,
// the walkers pass nullptr down the tree and every helper is a branch on
// a constant. With PLS_OBSERVE=0 the whole class is a no-op shell.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "observe/config.hpp"
#include "support/table.hpp"

namespace pls::observe {

/// The three attributable phases of a divide-and-conquer node.
enum class CpPhase : std::uint8_t { kSplit = 0, kAccumulate, kCombine };

/// One recorded tree node, times in raw ticks (see observe/config.hpp).
/// Null child pointers mark a leaf.
struct CpNode {
  CpNode* left = nullptr;
  CpNode* right = nullptr;
  std::uint32_t depth = 0;
  std::uint64_t split_ticks = 0;
  std::uint64_t accumulate_ticks = 0;
  std::uint64_t combine_ticks = 0;
  std::uint64_t elements = 0;

  bool is_leaf() const noexcept { return left == nullptr; }

  std::uint64_t own_ticks() const noexcept {
    return split_ticks + accumulate_ticks + combine_ticks;
  }

  void add_time(CpPhase phase, std::uint64_t ticks) noexcept {
    switch (phase) {
      case CpPhase::kSplit: split_ticks += ticks; break;
      case CpPhase::kAccumulate: accumulate_ticks += ticks; break;
      case CpPhase::kCombine: combine_ticks += ticks; break;
    }
  }
};

/// Per-phase time totals in nanoseconds.
struct PhaseBreakdown {
  double split_ns = 0.0;
  double accumulate_ns = 0.0;
  double combine_ns = 0.0;

  double total_ns() const noexcept {
    return split_ns + accumulate_ns + combine_ns;
  }
};

/// Analysis of one profiled run — real in both build modes (all zeros when
/// the layer is compiled out), so reporting code needs no #if.
struct CriticalPathStats {
  double work_ns = 0.0;  ///< T1: total busy time over all nodes
  double span_ns = 0.0;  ///< T∞: critical-path time (roots compose serially)
  PhaseBreakdown phases{};  ///< where T1 went
  std::size_t nodes = 0;
  std::size_t leaves = 0;
  std::uint64_t elements = 0;
  unsigned max_depth = 0;

  bool empty() const noexcept { return nodes == 0; }

  /// T1/T∞ — the run's inherent parallelism (max useful core count).
  double parallelism() const noexcept {
    return span_ns > 0.0 ? work_ns / span_ns : 0.0;
  }

  /// Brent's bound on P-processor execution time: T1/P + T∞.
  double brent_bound_ns(unsigned p) const noexcept {
    return p == 0 ? 0.0 : work_ns / static_cast<double>(p) + span_ns;
  }

  /// Steal/idle residue of a run that took `wall_ns` on `workers` workers:
  /// processor-time not attributed to any phase, P·wall − T1 (clamped to
  /// zero — timer skew can push tiny runs slightly negative).
  double idle_ns(double wall_ns, unsigned workers) const noexcept {
    const double cap = wall_ns * static_cast<double>(workers);
    return cap > work_ns ? cap - work_ns : 0.0;
  }

  /// Human-readable per-phase attribution table: one row per phase
  /// (split / accumulate / combine, plus steal-idle when wall_ns and
  /// workers are given), with time and share of total processor-time.
  std::string phase_table(double wall_ns = 0.0, unsigned workers = 0) const {
    TextTable t({"phase", "time_ms", "share"});
    const double idle =
        (wall_ns > 0.0 && workers > 0) ? idle_ns(wall_ns, workers) : 0.0;
    const double denom = work_ns + idle;
    auto row = [&](const char* name, double ns) {
      t.add_row({name, TextTable::num(ns / 1e6),
                 denom > 0.0 ? TextTable::num(100.0 * ns / denom, 1) + "%"
                             : "-"});
    };
    row("split", phases.split_ns);
    row("accumulate", phases.accumulate_ns);
    row("combine", phases.combine_ns);
    if (wall_ns > 0.0 && workers > 0) row("steal-idle", idle);
    return t.to_string();
  }

  /// The work/span/parallelism header (plus the Brent bound when
  /// `workers` is given) over phase_table(wall_ns, workers). Empty when
  /// nothing was profiled.
  std::string profile_summary(double wall_ns = 0.0,
                              unsigned workers = 0) const {
    if (empty()) return {};
    std::ostringstream os;
    os << "work T1 = " << work_ns / 1e6 << " ms, span Tinf = "
       << span_ns / 1e6 << " ms, parallelism T1/Tinf = " << parallelism();
    if (workers > 0) {
      os << ", Brent bound T" << workers << " <= "
         << brent_bound_ns(workers) / 1e6 << " ms";
    }
    os << '\n' << phase_table(wall_ns, workers);
    return os.str();
  }
};

/// A position in the recorder (node and root counts), so one run's trees
/// can be analysed apart from those recorded before it.
struct CpMark {
  std::size_t nodes = 0;
  std::size_t roots = 0;
};

#if PLS_OBSERVE

class CriticalPathRecorder {
 public:
  static CriticalPathRecorder& global() {
    static CriticalPathRecorder r;
    return r;
  }

  void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
  void disable() noexcept {
    enabled_.store(false, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drop all recorded nodes and roots. Only while no profiled run is in
  /// flight — outstanding CpNode pointers dangle after a clear.
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    nodes_.clear();
    roots_.clear();
  }

  /// Allocate a root node for a new profiled tree (one terminal operation
  /// / skeleton execution). Roots recorded in one window compose
  /// *serially* in the analysis: span = sum of root spans.
  CpNode* new_root() {
    std::lock_guard<std::mutex> lock(mutex_);
    nodes_.emplace_back();
    CpNode* root = &nodes_.back();
    roots_.push_back(root);
    return root;
  }

  /// Allocate and link both children of `parent`. The parent's thread
  /// calls this before forking, so the pointers can be captured by the
  /// child closures; the returned nodes are stable for the recorder's
  /// lifetime (deque arena).
  std::pair<CpNode*, CpNode*> fork(CpNode* parent) {
    std::lock_guard<std::mutex> lock(mutex_);
    nodes_.emplace_back();
    CpNode* l = &nodes_.back();
    nodes_.emplace_back();
    CpNode* r = &nodes_.back();
    parent->left = l;
    parent->right = r;
    l->depth = parent->depth + 1;
    r->depth = parent->depth + 1;
    return {l, r};
  }

  std::size_t node_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return nodes_.size();
  }

  /// The recorded tree roots (stable pointers; traverse only after the
  /// profiled run completed).
  std::vector<const CpNode*> roots() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {roots_.begin(), roots_.end()};
  }

  /// The recorder's current extent; analyze(scale, mark()) taken before
  /// a run covers exactly the trees that run records.
  CpMark mark() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {nodes_.size(), roots_.size()};
  }

  /// Analyse the forest recorded after `since` (by default all of it).
  /// `scale` converts recorded ticks to nanoseconds; the default is the
  /// process tick calibration. Call only after the profiled run has
  /// completed (no concurrent writers).
  CriticalPathStats analyze(double scale = ns_per_tick(),
                            CpMark since = {}) const {
    std::lock_guard<std::mutex> lock(mutex_);
    CriticalPathStats s;
    s.nodes = nodes_.size() - since.nodes;
    for (auto it = nodes_.begin() + static_cast<std::ptrdiff_t>(since.nodes);
         it != nodes_.end(); ++it) {
      const CpNode& n = *it;
      s.phases.split_ns += static_cast<double>(n.split_ticks) * scale;
      s.phases.accumulate_ns +=
          static_cast<double>(n.accumulate_ticks) * scale;
      s.phases.combine_ns += static_cast<double>(n.combine_ticks) * scale;
      s.elements += n.elements;
      if (n.is_leaf()) ++s.leaves;
      if (n.depth > s.max_depth) s.max_depth = n.depth;
    }
    s.work_ns = s.phases.total_ns();
    for (std::size_t i = since.roots; i < roots_.size(); ++i) {
      s.span_ns += span_of(*roots_[i], scale);
    }
    return s;
  }

 private:
  CriticalPathRecorder() = default;

  static double span_of(const CpNode& n, double scale) {
    const double own = static_cast<double>(n.own_ticks()) * scale;
    if (n.is_leaf()) return own;
    const double l = span_of(*n.left, scale);
    const double r = span_of(*n.right, scale);
    return own + (l > r ? l : r);
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::deque<CpNode> nodes_;  // deque: growth never moves existing nodes
  std::vector<CpNode*> roots_;
};

/// Root handle for a tree walk: a fresh root when the recorder is enabled,
/// nullptr (every downstream helper no-ops) otherwise.
inline CpNode* cp_new_root() {
  CriticalPathRecorder& r = CriticalPathRecorder::global();
  return r.enabled() ? r.new_root() : nullptr;
}

/// Child handles for a fork under `parent` (nullptr propagates).
inline std::pair<CpNode*, CpNode*> cp_fork(CpNode* parent) {
  if (parent == nullptr) return {nullptr, nullptr};
  return CriticalPathRecorder::global().fork(parent);
}

inline void cp_add_elements(CpNode* node, std::uint64_t elements) {
  if (node != nullptr) node->elements += elements;
}

/// Critical-path profiling under the RecorderScope rule. stats() analyses
/// only the trees recorded since the scope opened, so an inner scope
/// reports its own runs while the outer keeps all of them. The recorder is
/// process-global: profile one computation at a time.
class ProfileSession : RecorderScope<CriticalPathRecorder> {
 public:
  ProfileSession() : since_(CriticalPathRecorder::global().mark()) {}

  CriticalPathStats stats() const {
    return CriticalPathRecorder::global().analyze(ns_per_tick(), since_);
  }

 private:
  CpMark since_;
};

/// RAII phase timer for one node: no-cost when the node is nullptr.
class CpScope {
 public:
  CpScope(CpNode* node, CpPhase phase) noexcept
      : node_(node), phase_(phase),
        start_(node != nullptr ? now_ticks() : 0) {}
  CpScope(const CpScope&) = delete;
  CpScope& operator=(const CpScope&) = delete;
  /// Close without charging the phase.
  void discard() noexcept { node_ = nullptr; }
  ~CpScope() {
    if (node_ != nullptr) node_->add_time(phase_, now_ticks() - start_);
  }

 private:
  CpNode* node_;
  CpPhase phase_;
  std::uint64_t start_;
};

#else  // !PLS_OBSERVE — no-op shell.

class CriticalPathRecorder {
 public:
  static CriticalPathRecorder& global() {
    static CriticalPathRecorder r;
    return r;
  }
  void enable() noexcept {}
  void disable() noexcept {}
  bool enabled() const noexcept { return false; }
  void clear() {}
  CpNode* new_root() { return nullptr; }
  std::pair<CpNode*, CpNode*> fork(CpNode*) { return {nullptr, nullptr}; }
  std::size_t node_count() const { return 0; }
  std::vector<const CpNode*> roots() const { return {}; }
  CpMark mark() const { return {}; }
  CriticalPathStats analyze(double = 1.0, CpMark = {}) const { return {}; }
};

inline CpNode* cp_new_root() { return nullptr; }
inline std::pair<CpNode*, CpNode*> cp_fork(CpNode*) {
  return {nullptr, nullptr};
}
inline void cp_add_elements(CpNode*, std::uint64_t) {}

struct ProfileSession {
  ProfileSession() noexcept {}  // user-provided: a scope, never "unused"
  CriticalPathStats stats() const { return {}; }
};

struct CpScope {
  CpScope(CpNode*, CpPhase) noexcept {}
  CpScope(const CpScope&) = delete;
  CpScope& operator=(const CpScope&) = delete;
  void discard() noexcept {}
};

#endif  // PLS_OBSERVE

}  // namespace pls::observe
