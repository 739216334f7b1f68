// Cache-line-padded per-worker execution counters.
//
// Every thread that participates in an execution (fork-join workers,
// external submitters, the thread driving a sequential leaf) owns one
// observe slot: its CounterBlock (local_counters()), its HistogramBlock
// (local_histograms(), observe/histogram.hpp) and its label. This file's
// SlotRegistry is the one registry that leases those slots and recycles
// them when threads exit. Blocks are single-writer (the owning thread)
// and many-reader (aggregation), so all updates are relaxed atomic RMWs
// on a line nobody else writes — the increment costs one uncontended
// `lock add` and never bounces a cache line between workers. Aggregation
// walks the registry and sums snapshots on demand.
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
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "observe/config.hpp"
#include "observe/histogram.hpp"
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

/// One worker's labelled totals, as returned by SlotRegistry::per_worker.
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

/// One thread's observe storage: its counters, its histograms and the
/// label per_worker() reports. Allocated when a thread first claims it,
/// recycled (zeroed) when that thread exits.
struct ObserveSlot {
  CounterBlock counters;
  HistogramBlock histograms;
  std::string label;  ///< guarded by the registry mutex
};

/// Process-wide registry of per-thread observe slots. A thread claims a
/// slot on first use and holds it until it exits; then its counts and
/// histograms fold into the retired totals and the slot, zeroed, goes
/// back on a free list. So every aggregate stays monotone across thread
/// exits, the registry holds one slot per thread alive at once at the
/// peak (not one per thread that ever lived), and no two live threads
/// share a slot until more than kMaxSlots are alive at once (the overflow
/// threads then record into one shared slot: still correct, it is
/// atomic, merely unattributed). Per-worker rows of a slot recycled
/// between two snapshots do not diff meaningfully; totals do.
class SlotRegistry {
 public:
  static constexpr std::size_t kMaxSlots = 1024;

  /// Never destroyed: worker threads of static pools exit, and release
  /// their slots, during static destruction.
  static SlotRegistry& global() {
    static SlotRegistry* const r = new SlotRegistry;
    return *r;
  }

  /// The calling thread's slot (claims one on first call).
  ObserveSlot& local() {
    if (tls_slot_ == nullptr) tls_slot_ = &claim_slot();
    return *tls_slot_;
  }

  /// Attach a human-readable label ("fj-worker-3", ...) to the calling
  /// thread's slot. Off the hot path; guarded by a mutex.
  void set_local_label(std::string label) {
    ObserveSlot& slot = local();
    if (&slot == &shared_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    slot.label = std::move(label);
  }

  /// Counter sum of every slot plus the counts of threads that have exited.
  CounterTotals aggregate_counters() const {
    std::lock_guard<std::mutex> lock(mutex_);
    CounterTotals t = retired_counters_;
    t += shared_.counters.snapshot();
    for (const auto& slot : slots_) t += slot->counters.snapshot();
    return t;
  }

  /// Metric `m`'s histogram summed the same way (one metric read per
  /// slot, not the whole block).
  HistogramSnapshot aggregate_histogram(Metric m) const {
    std::lock_guard<std::mutex> lock(mutex_);
    HistogramSnapshot s = retired_histograms_.of(m);
    s += shared_.histograms.snapshot(m);
    for (const auto& slot : slots_) s += slot->histograms.snapshot(m);
    return s;
  }

  /// Per-slot counter snapshots with labels, in slot order (free slots
  /// show zeros).
  std::vector<WorkerCounters> per_worker() const {
    std::vector<WorkerCounters> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      WorkerCounters w{slots_[i]->label, slots_[i]->counters.snapshot()};
      if (w.label.empty()) w.label = "thread-" + std::to_string(i);
      out.push_back(std::move(w));
    }
    return out;
  }

  /// Zero every slot and the retired totals. Only meaningful while the
  /// system is quiescent; prefer snapshot deltas for scoped measurements.
  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& slot : slots_) zero(*slot);
    zero(shared_);
    retired_counters_ = {};
    retired_histograms_ = {};
  }

 private:
  /// Held by each thread that owns a slot; returns it when the thread
  /// exits (thread_local destruction).
  struct SlotLease {
    ObserveSlot* slot = nullptr;
    ~SlotLease() {
      if (slot != nullptr) SlotRegistry::global().release(*slot);
    }
  };

  SlotRegistry() = default;

  static void zero(ObserveSlot& slot) noexcept {
    slot.counters.reset();
    slot.histograms.reset();
  }

  ObserveSlot& claim_slot() {
    thread_local SlotLease lease;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      lease.slot = free_.back();
      free_.pop_back();
    } else if (slots_.size() < kMaxSlots) {
      lease.slot = slots_.emplace_back(std::make_unique<ObserveSlot>()).get();
    } else {
      return shared_;
    }
    return *lease.slot;
  }

  /// Runs on the exiting thread: fold its counts and histograms into the
  /// retired totals under the same lock every aggregate takes, so no
  /// reader sees them twice or not at all. Anything the thread records
  /// afterwards (later thread_local destructors) lands in the shared slot.
  void release(ObserveSlot& slot) {
    tls_slot_ = &shared_;
    std::lock_guard<std::mutex> lock(mutex_);
    retired_counters_ += slot.counters.snapshot();
    for (std::size_t i = 0; i < kMetricCount; ++i) {
      retired_histograms_.metric[i] +=
          slot.histograms.snapshot(static_cast<Metric>(i));
    }
    zero(slot);
    slot.label.clear();
    free_.push_back(&slot);
  }

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ObserveSlot>> slots_;
  std::vector<ObserveSlot*> free_;
  ObserveSlot shared_;
  CounterTotals retired_counters_;
  HistogramSetSnapshot retired_histograms_;

  static inline thread_local ObserveSlot* tls_slot_ = nullptr;
};

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

/// Empty in this mode: the blocks are static, stateless members.
struct ObserveSlot {
  static inline CounterBlock counters;
  static inline HistogramBlock histograms;
};

class SlotRegistry {
 public:
  static constexpr std::size_t kMaxSlots = 0;
  static SlotRegistry& global() {
    static SlotRegistry r;
    return r;
  }
  ObserveSlot& local() noexcept {
    static ObserveSlot slot;
    return slot;
  }
  void set_local_label(std::string) {}
  CounterTotals aggregate_counters() const { return {}; }
  HistogramSnapshot aggregate_histogram(Metric) const { return {}; }
  std::vector<WorkerCounters> per_worker() const { return {}; }
  void reset() {}
};

#endif  // PLS_OBSERVE

/// The calling thread's observe slot.
inline ObserveSlot& local_slot() { return SlotRegistry::global().local(); }

/// The calling thread's counter block.
inline CounterBlock& local_counters() { return local_slot().counters; }

/// The calling thread's histogram block.
inline HistogramBlock& local_histograms() { return local_slot().histograms; }

/// Snapshot of the process-wide totals (zero when compiled out).
inline CounterTotals aggregate_counters() {
  return SlotRegistry::global().aggregate_counters();
}

/// Process-wide histogram of one metric (zero when compiled out).
inline HistogramSnapshot aggregate_histogram(Metric m) {
  return SlotRegistry::global().aggregate_histogram(m);
}

/// Snapshot of the process-wide per-metric histograms.
inline HistogramSetSnapshot aggregate_histograms() {
  HistogramSetSnapshot s;
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    s.metric[i] = aggregate_histogram(static_cast<Metric>(i));
  }
  return s;
}

/// Full registry capture for scoped delta measurement:
///   auto before = counter_snapshot();
///   run();
///   auto delta = counter_snapshot() - before;
inline CounterSnapshot counter_snapshot() {
  SlotRegistry& r = SlotRegistry::global();
  return CounterSnapshot{r.aggregate_counters(), r.per_worker()};
}

}  // namespace pls::observe
