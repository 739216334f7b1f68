// Cache-padded, per-worker log-bucketed latency histograms.
//
// A Histogram buckets values by order of magnitude: bucket b holds values
// in [2^(b-1), 2^b) (bucket 0 holds the value 0, bucket 1 the value 1).
// Recording is one relaxed fetch_add on a line only the owning thread
// writes — the same single-writer discipline as observe/counters.hpp —
// so the hot paths (task dispatch, deque pop, steal sweeps, leaf chunks)
// pay one uncontended RMW and never bounce a cache line.
//
// Every participating thread owns one HistogramBlock holding one
// Histogram per Metric, in its observe slot next to its CounterBlock
// (observe/counters.hpp: one SlotRegistry leases and recycles both):
//   kTaskRun       fork-join task execution time          (ticks)
//   kStealLatency  duration of a successful steal sweep   (ticks)
//   kQueueDepth    own-deque depth observed at pop        (tasks)
//   kLeafRun       leaf accumulation chunk time           (ticks)
//   kCombineRun    combiner invocation time               (ticks)
// Time metrics record raw now_ticks() deltas; snapshots convert to
// nanoseconds on demand (quantile/mean take a scale factor, and
// ns_per_tick() is the scale for tick-recorded metrics).
//
// Snapshots are plain mergeable structs — real in both build modes, so
// reporting code never needs an #if. Merging is bucket-wise addition,
// which is associative and commutative and conserves total counts: the
// laws tests/proptest/histogram_laws_test.cpp checks.
//
// With PLS_OBSERVE=0 every recording type collapses to an empty shell.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "observe/config.hpp"
#include "support/align.hpp"

namespace pls::observe {

/// Number of log2 buckets. 64 covers the full uint64 range: values at or
/// above 2^62 saturate into the last bucket.
inline constexpr std::size_t kHistogramBuckets = 64;

/// The per-worker metrics recorded as histograms.
enum class Metric : std::uint8_t {
  kTaskRun = 0,
  kStealLatency,
  kQueueDepth,
  kLeafRun,
  kCombineRun,
};
inline constexpr std::size_t kMetricCount = 5;

inline const char* metric_name(Metric m) noexcept {
  switch (m) {
    case Metric::kTaskRun: return "task_run";
    case Metric::kStealLatency: return "steal_latency";
    case Metric::kQueueDepth: return "queue_depth";
    case Metric::kLeafRun: return "leaf_run";
    case Metric::kCombineRun: return "combine_run";
  }
  return "?";
}

/// True when the metric records now_ticks() deltas (convert with
/// ns_per_tick()); false for unitless metrics (queue depth).
inline bool metric_is_time(Metric m) noexcept {
  return m != Metric::kQueueDepth;
}

/// Bucket index of a value: 0 for 0, otherwise bit_width(v) capped to the
/// last bucket, so bucket b > 0 spans [2^(b-1), 2^b).
inline std::size_t histogram_bucket(std::uint64_t v) noexcept {
  const std::size_t b = static_cast<std::size_t>(std::bit_width(v));
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

/// Inclusive lower bound of a bucket's value range.
inline double bucket_lower_bound(std::size_t b) noexcept {
  if (b <= 1) return 0.0;
  return static_cast<double>(std::uint64_t{1} << (b - 1));
}

/// Exclusive upper bound of a bucket's value range.
inline double bucket_upper_bound(std::size_t b) noexcept {
  if (b == 0) return 1.0;
  if (b >= kHistogramBuckets - 1) return 1.8446744073709552e19;  // 2^64
  return static_cast<double>(std::uint64_t{1} << b);
}

/// Mergeable point-in-time view of one histogram. Always a real struct in
/// both build modes (zero everywhere with PLS_OBSERVE=0).
struct HistogramSnapshot {
  std::uint64_t counts[kHistogramBuckets] = {};
  std::uint64_t total = 0;      ///< number of recorded values
  std::uint64_t sum = 0;        ///< sum of recorded values
  std::uint64_t max_value = 0;  ///< largest recorded value

  bool empty() const noexcept { return total == 0; }

  /// Bucket-wise merge: associative, commutative, count-conserving.
  HistogramSnapshot& operator+=(const HistogramSnapshot& o) noexcept {
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) counts[b] += o.counts[b];
    total += o.total;
    sum += o.sum;
    if (o.max_value > max_value) max_value = o.max_value;
    return *this;
  }

  friend HistogramSnapshot operator+(HistogramSnapshot a,
                                     const HistogramSnapshot& b) noexcept {
    a += b;
    return a;
  }

  /// Delta of two snapshots taken from the same monotone source
  /// (`after - before`): bucket counts, total and sum subtract; max_value
  /// keeps the later snapshot's high-water mark (it is not a counter, so
  /// a true per-interval max is unrecoverable — the caveat mirrors
  /// CounterTotals::max_split_depth).
  friend HistogramSnapshot operator-(HistogramSnapshot a,
                                     const HistogramSnapshot& b) noexcept {
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      a.counts[i] -= b.counts[i];
    }
    a.total -= b.total;
    a.sum -= b.sum;
    return a;
  }

  friend bool operator==(const HistogramSnapshot& a,
                         const HistogramSnapshot& b) noexcept {
    if (a.total != b.total || a.sum != b.sum || a.max_value != b.max_value) {
      return false;
    }
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (a.counts[i] != b.counts[i]) return false;
    }
    return true;
  }

  /// Estimated q-quantile (q in [0,1]) with linear interpolation inside
  /// the containing log bucket, scaled by `scale` (use ns_per_tick() for
  /// tick-recorded metrics). The estimate is within a factor of two of
  /// the true quantile by construction of the buckets. Returns 0 when
  /// empty.
  double quantile(double q, double scale = 1.0) const noexcept {
    if (total == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double rank = q * static_cast<double>(total);
    double cum = 0.0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (counts[b] == 0) continue;
      const double next = cum + static_cast<double>(counts[b]);
      if (rank <= next || b == kHistogramBuckets - 1 || next >= static_cast<double>(total)) {
        const double lo = bucket_lower_bound(b);
        const double hi = bucket_upper_bound(b);
        const double frac =
            counts[b] == 0 ? 0.0
                           : (rank - cum) / static_cast<double>(counts[b]);
        const double clamped = frac < 0.0 ? 0.0 : (frac > 1.0 ? 1.0 : frac);
        return (lo + clamped * (hi - lo)) * scale;
      }
      cum = next;
    }
    return static_cast<double>(max_value) * scale;
  }

  double mean(double scale = 1.0) const noexcept {
    return total == 0
               ? 0.0
               : static_cast<double>(sum) / static_cast<double>(total) * scale;
  }

  double max(double scale = 1.0) const noexcept {
    return static_cast<double>(max_value) * scale;
  }
};

/// One snapshot per metric — what aggregation hands to reporting code.
struct HistogramSetSnapshot {
  HistogramSnapshot metric[kMetricCount];

  const HistogramSnapshot& of(Metric m) const noexcept {
    return metric[static_cast<std::size_t>(m)];
  }

  /// Metric-wise snapshot delta (`after - before`).
  friend HistogramSetSnapshot operator-(
      HistogramSetSnapshot a, const HistogramSetSnapshot& b) noexcept {
    for (std::size_t i = 0; i < kMetricCount; ++i) {
      a.metric[i] = a.metric[i] - b.metric[i];
    }
    return a;
  }
};

#if PLS_OBSERVE

/// Single-writer recording histogram: relaxed atomics on lines only the
/// owning thread writes; readers snapshot concurrently.
class Histogram {
 public:
  void record(std::uint64_t v) noexcept {
    counts_[histogram_bucket(v)].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = max_value_.load(std::memory_order_relaxed);
    while (cur < v && !max_value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot s;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      s.counts[b] = counts_[b].load(std::memory_order_relaxed);
    }
    s.total = total_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max_value = max_value_.load(std::memory_order_relaxed);
    return s;
  }

  void reset() noexcept {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
    total_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_value_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> counts_[kHistogramBuckets] = {};
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_value_{0};
};

/// One thread's histograms, cache-line aligned so two workers' blocks
/// never share a line.
struct alignas(kCacheLineSize) HistogramBlock {
  Histogram metric[kMetricCount];

  void record(Metric m, std::uint64_t v) noexcept {
    metric[static_cast<std::size_t>(m)].record(v);
  }

  HistogramSnapshot snapshot(Metric m) const noexcept {
    return metric[static_cast<std::size_t>(m)].snapshot();
  }

  void reset() noexcept {
    for (auto& h : metric) h.reset();
  }
};

/// RAII phase timer: records elapsed ticks into `block`'s histogram for
/// `m` on destruction. `block` is the running thread's own:
/// local_histograms(), or the histograms of a slot the caller cached.
class LatencyTimer {
 public:
  LatencyTimer(HistogramBlock& block, Metric m) noexcept
      : block_(block), m_(m), start_(now_ticks()) {}
  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;
  ~LatencyTimer() { block_.record(m_, now_ticks() - start_); }

 private:
  HistogramBlock& block_;
  Metric m_;
  std::uint64_t start_;
};

#else  // !PLS_OBSERVE — the whole layer is a no-op shell.

class Histogram {
 public:
  void record(std::uint64_t) noexcept {}
  HistogramSnapshot snapshot() const noexcept { return {}; }
  void reset() noexcept {}
};

struct HistogramBlock {
  void record(Metric, std::uint64_t) noexcept {}
  HistogramSnapshot snapshot(Metric) const noexcept { return {}; }
  void reset() noexcept {}
};

struct LatencyTimer {
  LatencyTimer(HistogramBlock&, Metric) noexcept {}
  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;
};

#endif  // PLS_OBSERVE

}  // namespace pls::observe
