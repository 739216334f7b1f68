// Durable per-terminal run history.
//
// Every executed terminal (streams evaluate, every
// fork-join skeleton run) appends one RunRecord: the plan identity
// (cache_key plus the DPS/drive verdicts rendered as strings), the
// grain and where it came from, the process-wide counter delta across the
// run, wall time, and the per-run leaf-latency p50/p90. The registry is the
// queryable history the ROADMAP item-5 tuner and future overload control
// consume — one PlanCache entry per *shape* cannot answer "what happened on
// the last N runs", this can. Records are exposed through
// pls::session::runs() and serialized by the observe/export.hpp JSONL log.
//
// The registry is always-on when compiled in (like counters): appending is
// one mutex acquisition per *terminal* — not per element or per task — so
// it is never on a hot path. A fixed-capacity keep-latest ring bounds
// memory; total() stays monotone so consumers can detect overwrite. The
// ring is one preallocated array of fixed-size records (no per-record
// allocation), so a full history costs kMaxRecords * sizeof(RunRecord).
//
// With PLS_OBSERVE=0 the registry collapses to an empty shell (RunRecord
// itself stays real so reporting code needs no #if).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "observe/config.hpp"
#include "observe/counters.hpp"

namespace pls::observe {

/// One executed terminal. Plain data, real in both build modes. Name
/// fields are pre-rendered names (terminal_name(...) etc.) so this header
/// does not depend on streams/plan.hpp — the emitting layer renders, the
/// registry stores. They must point at strings of static storage duration
/// (the renderers return literals): a record then owns no heap memory and
/// the full 4096-record ring stays under 1 MB.
struct RunRecord {
  std::uint64_t sequence = 0;  ///< monotone append index (stamped here)
  double t_ms = 0.0;           ///< steady_now_ms() at append

  // Plan identity and verdicts.
  std::uint64_t cache_key = 0;
  const char* terminal = "";
  const char* origin = "";
  const char* drive = "";
  const char* grain_source = "";
  const char* kernel = "";
  const char* dps_reason = "";
  bool parallel = false;
  bool dps = false;
  std::uint32_t parallelism = 0;
  std::uint64_t source_size = 0;
  std::uint64_t grain = 0;

  // Outcome.
  CounterTotals counters;  ///< process-wide aggregate delta across the run
  double wall_ms = 0.0;
  double leaf_p50_ns = 0.0;  ///< per-run leaf-chunk latency quantiles
  double leaf_p90_ns = 0.0;
};

#if PLS_OBSERVE

/// Process-wide bounded run history. Keep-latest: once kMaxRecords is
/// reached the oldest record is dropped; total() counts every append ever
/// made so `total() - records().size()` is the number dropped.
class RunRegistry {
 public:
  static constexpr std::size_t kMaxRecords = 4096;

  static RunRegistry& global() {
    static RunRegistry r;
    return r;
  }

  /// Append one record; stamps sequence and t_ms. Returns the sequence
  /// number assigned.
  std::uint64_t append(RunRecord rec) {
    std::lock_guard<std::mutex> lock(mutex_);
    rec.sequence = total_++;
    rec.t_ms = steady_now_ms();
    if (ring_.size() < kMaxRecords) {
      ring_.push_back(rec);
    } else {
      ring_[oldest_] = rec;  // overwrite the oldest record
      oldest_ = (oldest_ + 1) % kMaxRecords;
    }
    return rec.sequence;
  }

  /// Copy of the retained records, oldest first.
  std::vector<RunRecord> records() const { return records_since(0); }

  /// Retained records with sequence >= `from` (for session-scoped views),
  /// oldest first.
  std::vector<RunRecord> records_since(std::uint64_t from) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<RunRecord> out;
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      const RunRecord& r = ring_[(oldest_ + i) % ring_.size()];
      if (r.sequence >= from) out.push_back(r);
    }
    return out;
  }

  /// Monotone count of appends ever made (survives ring overwrite).
  std::uint64_t total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    oldest_ = 0;
  }

 private:
  RunRegistry() { ring_.reserve(kMaxRecords); }

  mutable std::mutex mutex_;
  std::vector<RunRecord> ring_;  ///< capacity kMaxRecords, never reallocated
  std::size_t oldest_ = 0;       ///< index of the oldest record once full
  std::uint64_t total_ = 0;
};

#else  // !PLS_OBSERVE — empty shell; every call site compiles to nothing.

class RunRegistry {
 public:
  static constexpr std::size_t kMaxRecords = 0;
  static RunRegistry& global() {
    static RunRegistry r;
    return r;
  }
  std::uint64_t append(RunRecord) { return 0; }
  std::vector<RunRecord> records() const { return {}; }
  std::vector<RunRecord> records_since(std::uint64_t) const { return {}; }
  std::uint64_t total() const { return 0; }
  void clear() {}
};

#endif  // PLS_OBSERVE

}  // namespace pls::observe
