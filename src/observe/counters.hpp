// Cache-line-padded per-worker execution counters.
//
// Every thread that participates in an execution (fork-join workers,
// external submitters, the thread driving a sequential leaf) owns one
// CounterBlock, obtained via local_counters(). Blocks are single-writer
// (the owning thread) and many-reader (aggregation), so all updates are
// relaxed atomic RMWs on a line nobody else writes — the increment costs
// one uncontended `lock add` and never bounces a cache line between
// workers. Aggregation walks the registry and sums snapshots on demand.
//
// What is counted (see docs/observability.md for the full schema):
//   tasks_executed        fork-join tasks run by this worker (incl. helping)
//   steals                successful task migrations *into* this worker
//   steal_failures        full victim sweeps that found nothing (idle probes)
//   forks                 invoke_two child pushes by this worker
//   splits                spliterator / PowerList splits performed
//   max_split_depth       deepest split level this worker descended to
//   elements_accumulated  elements consumed by leaf accumulation chunks
//   leaf_chunks           leaf accumulation chunks processed
//   combines              combiner invocations (ascending phase)
//   bytes_moved           element bytes physically moved between result
//                         containers (combine-phase data movement; zero on
//                         the destination-passing collect path)
//   allocations           result-container acquisitions (collector supply
//                         calls, sized-sink buffers, combiner scratch
//                         growth)
//   fused_leaves          leaf chunks of stream pipelines, all driven by
//                         the push-mode fusion engine (docs/execution.md);
//                         leaf_chunks - fused_leaves counts the skeleton
//                         leaves (multiway collects run fused too)
//
// With PLS_OBSERVE=0 every type collapses to an empty shell and every
// member function to a no-op; call sites compile to nothing.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "observe/config.hpp"
#include "support/align.hpp"

namespace pls::observe {

/// Plain aggregated totals — always a real struct, in both build modes, so
/// reporting code (benches, RunRecord, the pls:: facade) never needs
/// to be conditional.
struct CounterTotals {
  std::uint64_t tasks_executed = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_failures = 0;
  std::uint64_t forks = 0;
  std::uint64_t splits = 0;
  std::uint64_t max_split_depth = 0;
  std::uint64_t elements_accumulated = 0;
  std::uint64_t leaf_chunks = 0;
  std::uint64_t combines = 0;
  std::uint64_t bytes_moved = 0;
  std::uint64_t allocations = 0;
  std::uint64_t fused_leaves = 0;
};

/// One entry of the canonical counter-field table: the schema name, a
/// member pointer into CounterTotals, and whether the field is a monotone
/// counter (max_split_depth is a high-water mark — a gauge). Every
/// consumer that enumerates counter fields by name (bench JSON rows, the
/// Prometheus exposition, the JSONL run log) iterates kCounterFields so
/// there is exactly one copy of the name list.
struct CounterField {
  const char* name;
  std::uint64_t CounterTotals::*member;
  bool monotone;
};

/// The counter schema, in the order bench rows and docs/observability.md
/// present it. Real in both build modes.
inline constexpr CounterField kCounterFields[] = {
    {"tasks_executed", &CounterTotals::tasks_executed, true},
    {"steals", &CounterTotals::steals, true},
    {"steal_failures", &CounterTotals::steal_failures, true},
    {"forks", &CounterTotals::forks, true},
    {"splits", &CounterTotals::splits, true},
    {"max_split_depth", &CounterTotals::max_split_depth, false},
    {"elements_accumulated", &CounterTotals::elements_accumulated, true},
    {"leaf_chunks", &CounterTotals::leaf_chunks, true},
    {"fused_leaves", &CounterTotals::fused_leaves, true},
    {"combines", &CounterTotals::combines, true},
    {"bytes_moved", &CounterTotals::bytes_moved, true},
    {"allocations", &CounterTotals::allocations, true},
};

inline constexpr std::size_t kCounterFieldCount =
    sizeof(kCounterFields) / sizeof(kCounterFields[0]);

/// Position of a CounterTotals field in kCounterFields.
constexpr std::size_t counter_index(std::uint64_t CounterTotals::*member) {
  std::size_t i = 0;
  while (kCounterFields[i].member != member) ++i;
  return i;
}

/// Field-wise sum; max_split_depth, a high-water mark, takes the larger.
inline CounterTotals& operator+=(CounterTotals& a, const CounterTotals& b) {
  for (const CounterField& f : kCounterFields) {
    a.*f.member = f.monotone ? a.*f.member + b.*f.member
                             : std::max(a.*f.member, b.*f.member);
  }
  return a;
}

/// Delta of two snapshots taken from the same (monotonic) source.
/// max_split_depth is not a counter; the later snapshot's value is kept.
inline CounterTotals operator-(CounterTotals a, const CounterTotals& b) {
  for (const CounterField& f : kCounterFields) {
    if (f.monotone) a.*f.member -= b.*f.member;
  }
  return a;
}

/// One worker's labelled totals, as returned by CounterRegistry::per_worker.
struct WorkerCounters {
  std::string label;
  CounterTotals totals;
};

/// A point-in-time capture of the whole registry: process totals plus the
/// per-worker breakdown. Scoped measurements subtract two snapshots taken
/// around the region of interest (`after - before`) instead of resetting
/// the monotonic counters — resets race with concurrent workers, deltas
/// never do. Real in both build modes (empty when compiled out).
struct CounterSnapshot {
  CounterTotals total;
  std::vector<WorkerCounters> per_worker;

  /// Delta of two snapshots from the same registry: totals subtract
  /// (operator- on CounterTotals), and per-worker rows pair up by slot
  /// index. Slots that registered after `b` was taken diff against zero.
  friend CounterSnapshot operator-(CounterSnapshot a,
                                   const CounterSnapshot& b) {
    a.total = a.total - b.total;
    for (std::size_t i = 0; i < a.per_worker.size(); ++i) {
      if (i < b.per_worker.size()) {
        a.per_worker[i].totals =
            a.per_worker[i].totals - b.per_worker[i].totals;
      }
    }
    return a;
  }
};

#if PLS_OBSERVE

/// One thread's counters, one atomic per kCounterFields entry, in table
/// order: cache-line aligned (two lines), never shared for writing.
struct alignas(kCacheLineSize) CounterBlock {
  void on_task_executed() noexcept { add<&CounterTotals::tasks_executed>(); }
  void on_steal(bool success) noexcept {
    success ? add<&CounterTotals::steals>()
            : add<&CounterTotals::steal_failures>();
  }
  void on_fork() noexcept { add<&CounterTotals::forks>(); }
  void on_split(std::uint64_t depth) noexcept {
    add<&CounterTotals::splits>();
    auto& high = field<&CounterTotals::max_split_depth>();
    std::uint64_t cur = high.load(std::memory_order_relaxed);
    while (cur < depth &&
           !high.compare_exchange_weak(cur, depth, std::memory_order_relaxed)) {
    }
  }
  void on_leaf(std::uint64_t elements) noexcept {
    add<&CounterTotals::leaf_chunks>();
    add<&CounterTotals::elements_accumulated>(elements);
  }
  void on_combine() noexcept { add<&CounterTotals::combines>(); }
  void on_bytes_moved(std::uint64_t bytes) noexcept {
    add<&CounterTotals::bytes_moved>(bytes);
  }
  void on_allocation() noexcept { add<&CounterTotals::allocations>(); }
  void on_fused_leaf() noexcept { add<&CounterTotals::fused_leaves>(); }

  CounterTotals snapshot() const noexcept {
    CounterTotals t;
    for (std::size_t i = 0; i < kCounterFieldCount; ++i) {
      t.*kCounterFields[i].member = fields_[i].load(std::memory_order_relaxed);
    }
    return t;
  }

  void reset() noexcept {
    for (auto& f : fields_) f.store(0, std::memory_order_relaxed);
  }

 private:
  template <std::uint64_t CounterTotals::*M>
  std::atomic<std::uint64_t>& field() noexcept {
    constexpr std::size_t i = counter_index(M);
    return fields_[i];
  }
  template <std::uint64_t CounterTotals::*M>
  void add(std::uint64_t n = 1) noexcept {
    field<M>().fetch_add(n, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> fields_[kCounterFieldCount] = {};
};

/// Process-wide registry of per-thread counter blocks. A thread claims a
/// slot on first use and holds it until it exits; then its counts fold
/// into the retired total and the slot, zeroed, goes back on a free list.
/// So aggregate() stays monotone across thread exits, and no two live
/// threads share a block until more than kMaxSlots are alive at once
/// (the overflow threads then count into one shared block: still
/// correct, it is atomic, merely unattributed). Per-worker rows of a slot
/// recycled between two snapshots do not diff meaningfully; totals do.
class CounterRegistry {
 public:
  static constexpr std::size_t kMaxSlots = 1024;

  /// Never destroyed: worker threads of static pools exit, and release
  /// their slots, during static destruction.
  static CounterRegistry& global() {
    static CounterRegistry* const r = new CounterRegistry;
    return *r;
  }

  /// The calling thread's block (claims a slot on first call).
  CounterBlock& local() {
    if (tls_block_ == nullptr) tls_block_ = &claim_slot();
    return *tls_block_;
  }

  /// Attach a human-readable label ("fj-worker-3", ...) to the calling
  /// thread's slot. Off the hot path; guarded by a mutex.
  void set_local_label(std::string label) {
    CounterBlock& block = local();
    if (&block == &shared_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    labels_[static_cast<std::size_t>(&block - slots_)] = std::move(label);
  }

  /// Sum of every block plus the counts of threads that have exited.
  CounterTotals aggregate() const {
    std::lock_guard<std::mutex> lock(mutex_);
    CounterTotals t = retired_;
    t += shared_.snapshot();
    for (std::size_t i = 0; i < high_water_; ++i) t += slots_[i].snapshot();
    return t;
  }

  /// Per-slot snapshots with labels, for every slot ever claimed (threads
  /// register lazily, so never-used slots do not appear; free slots show
  /// zeros).
  std::vector<WorkerCounters> per_worker() const {
    std::vector<WorkerCounters> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < high_water_; ++i) {
      WorkerCounters w{labels_[i], slots_[i].snapshot()};
      if (w.label.empty()) w.label = "thread-" + std::to_string(i);
      out.push_back(std::move(w));
    }
    return out;
  }

  /// Zero every block and the retired total. Only meaningful while the
  /// system is quiescent; prefer snapshot deltas (operator-) for scoped
  /// measurements.
  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < high_water_; ++i) slots_[i].reset();
    shared_.reset();
    retired_ = {};
  }

 private:
  /// Held by each thread that owns a slot; returns it when the thread
  /// exits (thread_local destruction).
  struct SlotLease {
    CounterBlock* block = nullptr;
    ~SlotLease() {
      if (block != nullptr) CounterRegistry::global().release(*block);
    }
  };

  CounterRegistry() = default;

  CounterBlock& claim_slot() {
    thread_local SlotLease lease;
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t i;
    if (!free_.empty()) {
      i = free_.back();
      free_.pop_back();
    } else if (high_water_ < kMaxSlots) {
      i = high_water_++;
    } else {
      return shared_;
    }
    lease.block = &slots_[i];
    return slots_[i];
  }

  /// Runs on the exiting thread: fold its counts into the retired total
  /// under the same lock aggregate() takes, so no reader sees them twice
  /// or not at all. Anything the thread counts afterwards (later
  /// thread_local destructors) lands in the shared block.
  void release(CounterBlock& block) {
    tls_block_ = &shared_;
    std::lock_guard<std::mutex> lock(mutex_);
    retired_ += block.snapshot();
    block.reset();
    const auto i = static_cast<std::size_t>(&block - slots_);
    labels_[i].clear();
    free_.push_back(i);
  }

  CounterBlock slots_[kMaxSlots];
  CounterBlock shared_;
  mutable std::mutex mutex_;
  std::size_t high_water_ = 0;
  std::vector<std::size_t> free_;
  CounterTotals retired_;
  std::string labels_[kMaxSlots];

  static thread_local CounterBlock* tls_block_;
};

inline thread_local CounterBlock* CounterRegistry::tls_block_ = nullptr;

#else  // !PLS_OBSERVE — the whole layer is a no-op shell.

struct CounterBlock {
  void on_task_executed() noexcept {}
  void on_steal(bool) noexcept {}
  void on_fork() noexcept {}
  void on_split(std::uint64_t) noexcept {}
  void on_leaf(std::uint64_t) noexcept {}
  void on_combine() noexcept {}
  void on_bytes_moved(std::uint64_t) noexcept {}
  void on_allocation() noexcept {}
  void on_fused_leaf() noexcept {}
  CounterTotals snapshot() const noexcept { return {}; }
  void reset() noexcept {}
};

class CounterRegistry {
 public:
  static constexpr std::size_t kMaxSlots = 0;
  static CounterRegistry& global() {
    static CounterRegistry r;
    return r;
  }
  CounterBlock& local() noexcept { return block_; }
  void set_local_label(std::string) {}
  CounterTotals aggregate() const { return {}; }
  std::vector<WorkerCounters> per_worker() const { return {}; }
  void reset() {}

 private:
  CounterBlock block_;
};

#endif  // PLS_OBSERVE

/// The calling thread's counter block.
inline CounterBlock& local_counters() {
  return CounterRegistry::global().local();
}

/// Snapshot of the process-wide totals (zero when compiled out).
inline CounterTotals aggregate_counters() {
  return CounterRegistry::global().aggregate();
}

/// Full registry capture for scoped delta measurement:
///   auto before = counter_snapshot();
///   run();
///   auto delta = counter_snapshot() - before;
inline CounterSnapshot counter_snapshot() {
  CounterRegistry& r = CounterRegistry::global();
  return CounterSnapshot{r.aggregate(), r.per_worker()};
}

}  // namespace pls::observe
