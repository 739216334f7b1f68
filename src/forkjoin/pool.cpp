#include "forkjoin/pool.hpp"

#include <chrono>
#include <cstdlib>
#include <string>

namespace pls::forkjoin {

ForkJoinPool::ForkJoinPool(unsigned parallelism) {
  PLS_CHECK(parallelism >= 1, "ForkJoinPool needs at least one worker");
  workers_.reserve(parallelism);
  for (unsigned i = 0; i < parallelism; ++i) {
    // Fixed seed base: worker behaviour (victim selection) is deterministic
    // across runs for a given parallelism.
    workers_.push_back(std::make_unique<Worker>(i, 0x9E3779B9u + i));
  }
  threads_.reserve(parallelism);
  for (unsigned i = 0; i < parallelism; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
  if constexpr (observe::kEnabled) {
    // Expose live pool state to the continuous-telemetry sampler for the
    // pool's lifetime. The ordinal distinguishes pools in the labelled
    // namespace (the common pool is usually 0).
    static std::atomic<unsigned> next_pool_ordinal{0};
    const unsigned ordinal =
        next_pool_ordinal.fetch_add(1, std::memory_order_relaxed);
    metrics_source_ = observe::MetricsRegistry::global().add_source(
        [this, ordinal](observe::MetricsSample& sample) {
          append_pool_metrics(sample, ordinal);
        });
  }
}

ForkJoinPool::~ForkJoinPool() {
  if constexpr (observe::kEnabled) {
    // Deregister before shutting workers down: remove_source blocks until
    // no in-flight collect() can still sample this pool.
    if (metrics_source_ != 0) {
      observe::MetricsRegistry::global().remove_source(metrics_source_);
    }
  }
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    ++wake_epoch_;
  }
  sleep_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

unsigned ForkJoinPool::default_parallelism() {
  if (const char* env = std::getenv("PLS_PARALLELISM")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1u;
}

ForkJoinPool& ForkJoinPool::common() {
  static ForkJoinPool pool(default_parallelism());
  return pool;
}

void ForkJoinPool::worker_loop(unsigned index) {
  Worker& self = *workers_[index];
  // Claim the observe slot before publishing the worker via TLS, so every
  // recording site below (and in invoke_two/join) sees it non-null.
  self.slot.store(&observe::local_slot(), std::memory_order_release);
  observe::SlotRegistry::global().set_local_label(
      "fj-worker-" + std::to_string(index));
  tls_worker_ = &self;
  tls_pool_ = this;
  while (true) {
    RawTask* task = find_task(self);
    if (task != nullptr) {
      observe::Span task_span(observe::EventKind::kTask);
      run_counted(self, task);
      continue;
    }
    if (shutdown_.load(std::memory_order_acquire)) break;
    // Nothing runnable: sleep until new work is published. The epoch is
    // sampled before the re-check so a task pushed in between forces an
    // immediate retry instead of a missed wakeup; the timed wait is a
    // belt-and-braces bound on any residual race.
    std::uint64_t observed;
    {
      std::lock_guard<std::mutex> lock(sleep_mutex_);
      observed = wake_epoch_;
    }
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    RawTask* late = find_task(self);
    if (late != nullptr) {
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      observe::Span task_span(observe::EventKind::kTask);
      run_counted(self, late);
      continue;
    }
    {
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      sleep_cv_.wait_for(lock, std::chrono::milliseconds(10), [&] {
        return wake_epoch_ != observed ||
               shutdown_.load(std::memory_order_acquire);
      });
    }
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  }
  tls_worker_ = nullptr;
  tls_pool_ = nullptr;
}

void ForkJoinPool::append_pool_metrics(observe::MetricsSample& sample,
                                       unsigned ordinal) const {
  const double workers = static_cast<double>(workers_.size());
  const double sleeping = static_cast<double>(sleeping_workers());
  double backlog = 0.0;
  for (const std::size_t depth : queue_depths()) {
    backlog += static_cast<double>(depth);
  }
  const double steals =
      static_cast<double>(steals_.load(std::memory_order_relaxed));
  const double failures =
      static_cast<double>(steal_failures_.load(std::memory_order_relaxed));
  const double sweeps = steals + failures;
  const std::string label = std::to_string(ordinal);
  auto gauge = [&](const char* name, double value, const char* help) {
    sample.rows.push_back(observe::MetricRow{
        name, observe::MetricKind::kGauge, value, "pool", label, help});
  };
  auto counter = [&](const char* name, double value, const char* help) {
    sample.rows.push_back(observe::MetricRow{
        name, observe::MetricKind::kCounter, value, "pool", label, help});
  };
  gauge("pls_pool_workers", workers, "Worker threads owned by the pool");
  gauge("pls_pool_sleeping_workers", sleeping,
        "Workers parked in the timed sleep wait");
  gauge("pls_pool_queue_backlog", backlog,
        "Tasks queued across the pool's deques");
  gauge("pls_pool_utilization",
        workers > 0.0 ? (workers - sleeping) / workers : 0.0,
        "Fraction of workers not sleeping");
  gauge("pls_pool_starvation_ratio", sweeps > 0.0 ? failures / sweeps : 0.0,
        "Failed steal sweeps over all steal sweeps");
  counter("pls_pool_steals_total", steals,
          "Successful task migrations between workers");
  counter("pls_pool_steal_failures_total", failures,
          "Full steal sweeps that found no task");
}

RawTask* ForkJoinPool::find_task(Worker& self) {
  if constexpr (observe::kEnabled) {
    self.own_slot()->histograms.record(observe::Metric::kQueueDepth,
                                       self.deque.size());
  }
  if (RawTask* own = self.deque.pop()) return own;
  if (RawTask* injected = poll_injection()) return injected;
  return try_steal(self);
}

RawTask* ForkJoinPool::try_steal(Worker& self) {
  const std::size_t n = workers_.size();
  if (n <= 1) return nullptr;
  // Start the sweep at a random victim to spread contention, then scan all
  // other workers once. A successful sweep's duration — victim probing
  // included — is the steal latency recorded below.
  const std::uint64_t sweep_start =
      observe::kEnabled ? observe::now_ticks() : 0;
  const std::size_t offset = self.rng.next_below(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (offset + k) % n;
    if (victim == self.index) continue;
    if (RawTask* stolen = workers_[victim]->deque.steal()) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      self.own_slot()->counters.on_steal(true);
      if constexpr (observe::kEnabled) {
        self.own_slot()->histograms.record(
            observe::Metric::kStealLatency,
            observe::now_ticks() - sweep_start);
      }
      observe::instant(observe::EventKind::kSteal, victim);
      return stolen;
    }
  }
  // One failed attempt = one full sweep over all victims. Hot while a
  // worker is starved, so both the pool tally and the per-worker block use
  // relaxed, thread-local increments.
  steal_failures_.fetch_add(1, std::memory_order_relaxed);
  self.own_slot()->counters.on_steal(false);
  return nullptr;
}

RawTask* ForkJoinPool::poll_injection() {
  std::lock_guard<std::mutex> lock(inject_mutex_);
  if (injected_.empty()) return nullptr;
  RawTask* task = injected_.front();
  injected_.pop_front();
  return task;
}

void ForkJoinPool::external_push(RawTask* task) {
  {
    std::lock_guard<std::mutex> lock(inject_mutex_);
    injected_.push_back(task);
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    ++wake_epoch_;
  }
  sleep_cv_.notify_all();
}

void ForkJoinPool::wake_one_if_sleeping() {
  // Full fence: the preceding deque push must be globally visible before
  // the sleeper check (x86 reorders store -> later load; without this a
  // worker could go to sleep "around" a fresh task, costing one timed-
  // wait period of latency).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    {
      std::lock_guard<std::mutex> lock(sleep_mutex_);
      ++wake_epoch_;
    }
    sleep_cv_.notify_one();
  }
}

}  // namespace pls::forkjoin
