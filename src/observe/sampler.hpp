// Background metrics sampler: registry snapshots on a timer, into a ring.
//
// A single background thread wakes every PLS_METRICS_INTERVAL_MS
// milliseconds (or an explicit start() interval), calls
// MetricsRegistry::collect(), and pushes the timestamped sample into a
// fixed-capacity keep-latest SampleRing — so utilization, backlog and
// throughput *over time* are visible from a long-lived process without
// full span tracing. The sampler is runtime-gated exactly like tracing:
// nothing runs until start() (the RAII MetricsSession in
// observe/export.hpp is the intended owner of the start/stop lifecycle —
// the session also needs the exporter's flush, which is why it lives
// there and not here).
//
// Interval resolution for start(interval_ms):
//   explicit argument > PLS_METRICS_INTERVAL_MS > 0 (disabled)
// start() with an effective interval of 0 starts no thread and returns
// false; stop() is idempotent and joins the thread.
//
// With PLS_OBSERVE=0 both types are empty shells: start() returns false,
// the ring reports no samples, and call sites compile to nothing.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "observe/config.hpp"
#include "observe/metrics.hpp"

namespace pls::observe {

/// PLS_METRICS_INTERVAL_MS, or `fallback` when unset/non-positive. Real in
/// both build modes so benches can pass the resolved value around without
/// an #if.
inline unsigned metrics_interval_env(unsigned fallback = 0) {
  if (const char* v = std::getenv("PLS_METRICS_INTERVAL_MS")) {
    const long parsed = std::strtol(v, nullptr, 10);
    if (parsed > 0) return static_cast<unsigned>(parsed);
  }
  return fallback;
}

#if PLS_OBSERVE

/// Fixed-capacity keep-latest ring of timestamped samples. Mutex-guarded:
/// pushes happen once per sampling interval, reads once per export —
/// never on an execution hot path.
class SampleRing {
 public:
  static constexpr std::size_t kCapacity = 512;

  void push(MetricsSample sample) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (samples_.size() == kCapacity) samples_.pop_front();
    samples_.push_back(std::move(sample));
    ++total_pushed_;
  }

  /// Copy of the retained samples, oldest first.
  std::vector<MetricsSample> samples() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::vector<MetricsSample>(samples_.begin(), samples_.end());
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_.size();
  }

  /// Monotone count of pushes ever made (survives ring overwrite).
  std::uint64_t total_pushed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_pushed_;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::deque<MetricsSample> samples_;
  std::uint64_t total_pushed_ = 0;
};

/// The background sampling thread. One per process (global()); start/stop
/// may be called repeatedly — the thread exists only between a successful
/// start() and the next stop().
class MetricsSampler {
 public:
  static MetricsSampler& global() {
    static MetricsSampler s;
    return s;
  }

  /// Start sampling every `interval_ms` ms (0 = use the environment;
  /// still 0 = do nothing). Returns true iff the thread is running on
  /// return. A second start() while running is a no-op returning true.
  bool start(unsigned interval_ms = 0) {
    std::lock_guard<std::mutex> lock(control_mutex_);
    if (thread_.joinable()) return true;
    if (interval_ms == 0) interval_ms = metrics_interval_env(0);
    if (interval_ms == 0) return false;
    stop_requested_ = false;
    interval_ms_ = interval_ms;
    thread_ = std::thread([this] { loop(); });
    return true;
  }

  /// Stop and join the sampling thread; idempotent.
  void stop() {
    std::lock_guard<std::mutex> lock(control_mutex_);
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> wake(wake_mutex_);
      stop_requested_ = true;
    }
    wake_cv_.notify_all();
    thread_.join();
    thread_ = std::thread();
  }

  bool running() const {
    std::lock_guard<std::mutex> lock(control_mutex_);
    return thread_.joinable();
  }

  SampleRing& ring() { return ring_; }

  ~MetricsSampler() { stop(); }

 private:
  MetricsSampler() = default;

  void loop() {
    std::unique_lock<std::mutex> wake(wake_mutex_);
    while (!stop_requested_) {
      wake_cv_.wait_for(wake, std::chrono::milliseconds(interval_ms_),
                        [this] { return stop_requested_; });
      if (stop_requested_) break;
      wake.unlock();
      ring_.push(MetricsRegistry::global().collect());
      wake.lock();
    }
  }

  mutable std::mutex control_mutex_;  ///< serializes start/stop/running
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;
  unsigned interval_ms_ = 0;
  std::thread thread_;
  SampleRing ring_;
};

#else  // !PLS_OBSERVE — empty shells; every call site compiles to nothing.

class SampleRing {
 public:
  static constexpr std::size_t kCapacity = 0;
  void push(MetricsSample) {}
  std::vector<MetricsSample> samples() const { return {}; }
  std::size_t size() const { return 0; }
  std::uint64_t total_pushed() const { return 0; }
  void clear() {}
};

class MetricsSampler {
 public:
  static MetricsSampler& global() {
    static MetricsSampler s;
    return s;
  }
  bool start(unsigned = 0) { return false; }
  void stop() {}
  bool running() const { return false; }
  SampleRing& ring() {
    static SampleRing r;
    return r;
  }
};

#endif  // PLS_OBSERVE

}  // namespace pls::observe
