// ForkJoinPool: a work-stealing thread pool specialised for recursive
// divide-and-conquer tasks — the C++ analogue of java.util.concurrent's
// ForkJoinPool, which both Java parallel streams and the JPLF framework use
// as their execution substrate.
//
// Execution model
//   - N worker threads, each owning a Chase-Lev deque.
//   - invoke_two(left, right) is the fork-join primitive: the right closure
//     is pushed on the calling worker's deque (fork), the left closure runs
//     inline, and the join either pops the right task back (it was not
//     stolen: zero synchronisation beyond the deque protocol) or helps by
//     executing other tasks until the thief finishes it.
//   - External threads enter through run(), which injects a heap task and
//     blocks on a future; all recursive parallelism then happens on workers.
//   - Each worker claims its observe slot (observe/counters.hpp) at thread
//     start and caches the pointer: its counters and its task-run,
//     queue-depth and steal-latency histograms are recorded through it,
//     with no thread-local lookup per task. The slot returns to the
//     registry, its counts folded into the retired totals, when the
//     worker exits.
//
// Following CP.4 the API is expressed in tasks (closures), never threads;
// workers are joined in the destructor (CP.25/CP.26: no detached threads).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "forkjoin/deque.hpp"
#include "forkjoin/task.hpp"
#include "observe/counters.hpp"
#include "observe/histogram.hpp"
#include "observe/metrics.hpp"
#include "observe/trace.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace pls::forkjoin {

/// Deterministic-schedule hook (testing): while installed on a pool,
/// invoke_two bypasses the deques and runs both closures serially on the
/// calling thread, in the order the hook chooses per fork. A seeded hook
/// therefore replays one exact interleaving per seed, and a sweep of seeds
/// explores distinct steal/run orders — the schedule-fuzzing substrate of
/// src/proptest/deterministic_pool.hpp. Install with set_schedule_hook()
/// while no tasks are in flight; the hook must outlive the installation.
class ForkScheduleHook {
 public:
  virtual ~ForkScheduleHook() = default;

  /// Decide the next fork's execution order. Returning true runs the
  /// forked (right) closure before the left one — the serial analogue of
  /// the child being stolen and completed before the parent continues;
  /// false is the undisturbed pop-own-task order.
  virtual bool run_forked_first() = 0;
};

class ForkJoinPool {
 public:
  /// Create a pool with the given number of worker threads (>= 1).
  explicit ForkJoinPool(unsigned parallelism = default_parallelism());

  /// Joins all workers; outstanding external submissions complete first
  /// only if the caller waited on their futures (normal usage).
  ~ForkJoinPool();

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  unsigned parallelism() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Parallelism used by default-constructed pools: the PLS_PARALLELISM
  /// environment variable if set, otherwise hardware_concurrency (min 1).
  static unsigned default_parallelism();

  /// Process-wide shared pool (analogue of ForkJoinPool.commonPool()).
  static ForkJoinPool& common();

  /// True if the calling thread is a worker of *some* ForkJoinPool.
  static bool in_worker() noexcept { return tls_worker_ != nullptr; }

  /// True if the calling thread is a worker of *this* pool.
  bool in_this_pool() const noexcept { return tls_pool_ == this; }

  /// Execute `f` on the pool and return its result. If called from a worker
  /// of this pool, runs inline (it is already "on the pool"); otherwise the
  /// calling thread blocks until a worker has finished the task.
  template <typename F>
  auto run(F&& f) -> std::invoke_result_t<F&> {
    if (in_this_pool()) {
      return f();
    }
    using Fn = std::decay_t<F>;
    auto* task = new HeapTask<Fn>(std::forward<F>(f));  // deletes itself
    auto future = task->get_future();
    external_push(task);
    return future.get();
  }

  /// Fire-and-forget external submission: inject `f` and return
  /// immediately. The caller owns completion tracking (the service driver
  /// counts in-flight batches and quiesces before pool destruction); an
  /// exception escaping `f` terminates, as from a detached thread. Unlike
  /// run(), never runs inline — even from a worker of this pool the task
  /// goes through the injection queue, so a drain task may safely submit
  /// follow-up work without unbounded recursion.
  template <typename F>
  void submit(F&& f) {
    using Fn = std::decay_t<F>;
    external_push(new DetachedTask<Fn>(std::forward<F>(f)));  // deletes itself
  }

  /// The fork-join primitive: execute both closures, potentially in
  /// parallel. Must be joined before the enclosing frame returns (enforced
  /// structurally: this function only returns once both closures finished).
  /// Exceptions from either closure propagate to the caller; if both throw,
  /// the left one wins (the right one's is dropped, matching std::async
  /// composition semantics closely enough for this library).
  template <typename FL, typename FR>
  void invoke_two(FL&& left, FR&& right) {
    if (ForkScheduleHook* hook = schedule_hook_) {
      invoke_two_serialized(*hook, left, right);
      return;
    }
    Worker* self = (tls_pool_ == this) ? tls_worker_ : nullptr;
    if (self == nullptr) {
      // Not on this pool: degrade gracefully to sequential execution.
      left();
      right();
      return;
    }
    using RightFn = std::remove_reference_t<FR>;
    ChildTask<RightFn> child(right);
    self->deque.push(&child);
    self->own_slot()->counters.on_fork();
    observe::instant(observe::EventKind::kFork);
    wake_one_if_sleeping();
    // The child lives on this frame: even if `left` throws we must join it
    // before unwinding, or a thief could execute a destroyed task.
    std::exception_ptr left_error;
    try {
      left();
    } catch (...) {
      left_error = std::current_exception();
    }
    {
      observe::Span join_span(observe::EventKind::kJoin);
      join(*self, child);
    }
    if (left_error) std::rethrow_exception(left_error);
    child.rethrow_if_failed();
  }

  /// Install (or clear, with nullptr) a deterministic-schedule hook. The
  /// caller must ensure no tasks are in flight when the hook changes and
  /// that the hook outlives its installation; a plain (non-atomic) member
  /// suffices because external_push's queue mutex orders the write against
  /// the worker that dequeues and executes the submitted task.
  void set_schedule_hook(ForkScheduleHook* hook) noexcept {
    schedule_hook_ = hook;
  }

  ForkScheduleHook* schedule_hook() const noexcept { return schedule_hook_; }

  /// Total number of successful steals since construction (diagnostic).
  std::uint64_t steal_count() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Full steal sweeps that found no task (failed attempts). Together with
  /// steal_count() this separates productive migrations from idle probing —
  /// the distinction the single pre-observe counter conflated.
  std::uint64_t steal_failure_count() const noexcept {
    return steal_failures_.load(std::memory_order_relaxed);
  }

  /// Workers currently parked in the timed sleep wait (sampled,
  /// approximate — a worker may be waking as you read). The continuous-
  /// telemetry layer derives pool utilization from this.
  int sleeping_workers() const noexcept {
    const int s = sleepers_.load(std::memory_order_relaxed);
    return s > 0 ? s : 0;
  }

  /// Approximate per-worker deque depths, indexed by worker ordinal. The
  /// Chase-Lev size() reads both bounds with acquire loads, so sampling
  /// from a non-worker thread is safe (the value may be momentarily
  /// stale, which is fine for backlog gauges).
  std::vector<std::size_t> queue_depths() const {
    std::vector<std::size_t> out;
    out.reserve(workers_.size());
    for (const auto& w : workers_) {
      out.push_back(static_cast<std::size_t>(w->deque.size()));
    }
    return out;
  }

  /// Aggregated observability counters over this pool's workers (zeros
  /// when PLS_OBSERVE=0; see src/observe/counters.hpp).
  observe::CounterTotals counter_totals() const {
    observe::CounterTotals t;
    for (const auto& w : workers_) {
      const auto* slot = w->slot.load(std::memory_order_acquire);
      if (slot != nullptr) t += slot->counters.snapshot();
    }
    return t;
  }

  /// Labelled point-in-time capture of this pool's counters (totals plus
  /// per-worker rows), diffable with observe::CounterSnapshot::operator-:
  ///   auto before = pool.counter_snapshot();
  ///   run();
  ///   auto delta = pool.counter_snapshot() - before;
  observe::CounterSnapshot counter_snapshot() const {
    observe::CounterSnapshot s;
    s.total = counter_totals();
    const auto per = per_worker_counters();
    s.per_worker.reserve(per.size());
    for (std::size_t i = 0; i < per.size(); ++i) {
      s.per_worker.push_back(
          {"fj-worker-" + std::to_string(i), per[i]});
    }
    return s;
  }

  /// Per-worker counter snapshots, indexed by worker ordinal.
  std::vector<observe::CounterTotals> per_worker_counters() const {
    std::vector<observe::CounterTotals> out;
    out.reserve(workers_.size());
    for (const auto& w : workers_) {
      const auto* slot = w->slot.load(std::memory_order_acquire);
      out.push_back(slot != nullptr ? slot->counters.snapshot()
                                    : observe::CounterTotals{});
    }
    return out;
  }

 private:
  struct Worker {
    explicit Worker(unsigned index_, std::uint64_t seed)
        : index(index_), rng(seed) {}
    unsigned index;
    WorkStealingDeque deque;
    Xoshiro256 rng;
    /// This worker thread's observe slot, counters and histograms
    /// (published at thread start, before any task can run on the
    /// worker; stable for the pool's lifetime). Every count and histogram
    /// record the pool makes for this worker goes through it, with no
    /// thread-local lookup. Atomic because counter_totals() reads it from
    /// other threads while the worker may still be starting up. The
    /// owning worker reads its own store, so relaxed suffices on
    /// recording paths.
    std::atomic<observe::ObserveSlot*> slot{nullptr};

    observe::ObserveSlot* own_slot() const noexcept {
      return slot.load(std::memory_order_relaxed);
    }
  };

  /// Serialized fork under a schedule hook: both closures run on the
  /// calling thread, in hook-chosen order; no deque traffic, so a seed's
  /// decision sequence fully determines the interleaving. Exception
  /// precedence matches the concurrent path: the left closure's error
  /// wins when both throw, regardless of execution order.
  template <typename FL, typename FR>
  void invoke_two_serialized(ForkScheduleHook& hook, FL& left, FR& right) {
    observe::instant(observe::EventKind::kFork);
    std::exception_ptr left_error;
    std::exception_ptr right_error;
    auto guarded_left = [&] {
      try {
        left();
      } catch (...) {
        left_error = std::current_exception();
      }
    };
    auto guarded_right = [&] {
      try {
        right();
      } catch (...) {
        right_error = std::current_exception();
      }
    };
    if (hook.run_forked_first()) {
      guarded_right();
      guarded_left();
    } else {
      guarded_left();
      guarded_right();
    }
    if (left_error) std::rethrow_exception(left_error);
    if (right_error) std::rethrow_exception(right_error);
  }

  void worker_loop(unsigned index);

  /// Append this pool's gauges/counters (workers, sleepers, backlog,
  /// utilization, starvation ratio, steal totals) to a metrics sample;
  /// `ordinal` labels the rows (pool="N"). Called by the source this pool
  /// registers with the MetricsRegistry for its lifetime.
  void append_pool_metrics(observe::MetricsSample& sample,
                           unsigned ordinal) const;

  /// Run `task` on `self`, counted and timed into the worker's slot.
  /// Counted at dispatch: execute() publishes completion (promise / done
  /// flag), so counting afterwards would let a waiter observe the result
  /// before the counter moved.
  static void run_counted(Worker& self, RawTask* task) {
    observe::ObserveSlot& slot = *self.own_slot();
    slot.counters.on_task_executed();
    observe::LatencyTimer run_timer(slot.histograms,
                                    observe::Metric::kTaskRun);
    task->execute();
  }

  /// Find runnable work: own deque, then injection queue, then steal sweep.
  RawTask* find_task(Worker& self);

  /// Steal one task from some other worker (one full sweep); nullptr if none.
  RawTask* try_steal(Worker& self);

  RawTask* poll_injection();
  void external_push(RawTask* task);
  void wake_one_if_sleeping();

  /// Wait for `target` to complete, executing other tasks meanwhile.
  template <typename Child>
  void join(Worker& self, Child& target) {
    // Fast path: the child is still on top of our own deque.
    if (!target.is_done()) {
      if constexpr (observe::kEnabled) {
        self.own_slot()->histograms.record(observe::Metric::kQueueDepth,
                                           self.deque.size());
      }
      RawTask* popped = self.deque.pop();
      if (popped == &target) {
        run_counted(self, popped);
        return;
      }
      if (popped != nullptr) {
        // Defensive: structured fork-join keeps the deque balanced, but if
        // user code escaped the discipline, still make progress.
        run_counted(self, popped);
      }
    }
    // Slow path: the child was stolen; help run the rest of the system.
    unsigned idle_spins = 0;
    while (!target.is_done()) {
      RawTask* t = find_task(self);
      if (t != nullptr) {
        observe::Span task_span(observe::EventKind::kTask);
        run_counted(self, t);
        idle_spins = 0;
      } else if (++idle_spins > 64) {
        std::this_thread::yield();
      }
    }
  }

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex inject_mutex_;
  std::deque<RawTask*> injected_;

  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::uint64_t wake_epoch_ = 0;          // guarded by sleep_mutex_
  std::atomic<int> sleepers_{0};
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> steal_failures_{0};
  ForkScheduleHook* schedule_hook_ = nullptr;
  std::uint64_t metrics_source_ = 0;  ///< MetricsRegistry token (0 = none)

  // Defined inline so the zero-initialised declarations are constant
  // initialised: reads need no TLS wrapper call.
  static inline thread_local Worker* tls_worker_ = nullptr;
  static inline thread_local ForkJoinPool* tls_pool_ = nullptr;
};

}  // namespace pls::forkjoin
