// Telemetry exporters: Prometheus text exposition + JSONL structured log.
//
// Two consumers over MetricsRegistry samples and the RunRegistry history:
//
//   write_prometheus(os, sample) renders one MetricsSample in the
//   Prometheus text exposition format — # HELP / # TYPE per metric name
//   (first occurrence wins), `name{label="value"} value` per row, label
//   values escaped per the spec. Scrape-ready for the future service
//   layer; real in both build modes (an empty sample renders nothing).
//
//   MetricsLog is the file exporter: one JSON object per line, on the
//   same FileSink as the trace (observe/file_sink.hpp) — the destination
//   comes from the PLS_METRICS_PATH environment variable (or
//   set_output_path()), and enable() registers an atexit flush so an
//   early exit() still leaves a valid log behind. Lines are:
//     {"type":"run", ...}     one per RunRegistry record: plan identity
//                             (cache_key as a decimal *string* — full
//                             64-bit keys do not survive JSON doubles),
//                             verdicts, counter deltas (one field per
//                             kCounterFields entry), wall time, leaf
//                             latency quantiles
//     {"type":"sample", ...}  one per retained SampleRing entry with the
//                             full row list
//
//   MetricsSession is the scoped lifecycle (the telemetry analogue of
//   TraceSession): construction clears stale ring/run state, enables the
//   log, and starts the sampler; destruction stops the sampler, captures
//   one final sample, and flushes — also during stack unwinding, which
//   the atexit hook alone would miss. It lives here rather than in
//   observe/sampler.hpp because teardown needs the exporter's flush.
//
// With PLS_OBSERVE=0 MetricsLog and MetricsSession are empty shells and
// every call site compiles to nothing.
#pragma once

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>

#include "observe/config.hpp"
#include "observe/counters.hpp"
#include "observe/file_sink.hpp"
#include "observe/metrics.hpp"
#include "observe/run_registry.hpp"
#include "observe/sampler.hpp"

namespace pls::observe {

namespace detail {

/// Minimal JSON string escape (same subset as the bench encoder).
inline std::string json_escape(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

inline std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Prometheus escaping: backslash and line feed, plus double-quote in
/// label values (HELP text keeps its quotes).
inline std::string prom_escape(const std::string& s, bool label) {
  std::string out;
  for (char c : s) {
    if (c == '\\') out += "\\\\";
    else if (c == '\n') out += "\\n";
    else if (c == '"' && label) out += "\\\"";
    else out += c;
  }
  return out;
}

}  // namespace detail

/// Render one sample in the Prometheus text exposition format. Rows are
/// grouped by metric name in first-occurrence order; each name gets one
/// # HELP and one # TYPE line, then every row under that name. Real in
/// both build modes (empty sample, empty output).
inline void write_prometheus(std::ostream& os, const MetricsSample& sample) {
  const std::size_t n = sample.rows.size();
  for (std::size_t i = 0; i < n; ++i) {
    const MetricRow& head = sample.rows[i];
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (sample.rows[j].name == head.name) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    if (!head.help.empty()) {
      os << "# HELP " << head.name << ' '
         << detail::prom_escape(head.help, false) << '\n';
    }
    os << "# TYPE " << head.name << ' '
       << (head.kind == MetricKind::kCounter ? "counter" : "gauge") << '\n';
    for (std::size_t j = i; j < n; ++j) {
      const MetricRow& row = sample.rows[j];
      if (row.name != head.name) continue;
      os << row.name;
      if (!row.label_key.empty()) {
        os << '{' << row.label_key << "=\""
           << detail::prom_escape(row.label_value, true) << "\"}";
      }
      os << ' ' << detail::fmt_double(row.value) << '\n';
    }
  }
}

inline std::string prometheus_text(const MetricsSample& sample) {
  std::ostringstream os;
  write_prometheus(os, sample);
  return os.str();
}

/// Serialize one run record as a single-line JSON object. Real in both
/// build modes (the JSONL round-trip test feeds it synthetic records).
inline std::string run_record_json(const RunRecord& r) {
  std::ostringstream os;
  os << "{\"type\":\"run\",\"sequence\":" << r.sequence
     << ",\"t_ms\":" << detail::fmt_double(r.t_ms)
     << ",\"cache_key\":\"" << r.cache_key << "\""
     << ",\"terminal\":" << detail::json_escape(r.terminal)
     << ",\"origin\":" << detail::json_escape(r.origin)
     << ",\"parallel\":" << (r.parallel ? "true" : "false")
     << ",\"parallelism\":" << r.parallelism
     << ",\"source_size\":" << r.source_size
     << ",\"dps\":" << (r.dps ? "true" : "false")
     << ",\"dps_reason\":" << detail::json_escape(r.dps_reason)
     << ",\"drive\":" << detail::json_escape(r.drive)
     << ",\"grain\":" << r.grain
     << ",\"grain_source\":" << detail::json_escape(r.grain_source)
     << ",\"kernel\":" << detail::json_escape(r.kernel)
     << ",\"counters\":{";
  for (std::size_t i = 0; i < kCounterFieldCount; ++i) {
    if (i != 0) os << ',';
    os << '"' << kCounterFields[i].name
       << "\":" << r.counters.*kCounterFields[i].member;
  }
  os << "},\"wall_ms\":" << detail::fmt_double(r.wall_ms)
     << ",\"leaf_p50_ns\":" << detail::fmt_double(r.leaf_p50_ns)
     << ",\"leaf_p90_ns\":" << detail::fmt_double(r.leaf_p90_ns) << '}';
  return os.str();
}

/// Serialize one metrics sample as a single-line JSON object.
inline std::string sample_json(const MetricsSample& s) {
  std::ostringstream os;
  os << "{\"type\":\"sample\",\"t_ms\":" << detail::fmt_double(s.t_ms)
     << ",\"rows\":[";
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    const MetricRow& row = s.rows[i];
    if (i != 0) os << ',';
    os << "{\"name\":" << detail::json_escape(row.name) << ",\"kind\":\""
       << (row.kind == MetricKind::kCounter ? "counter" : "gauge")
       << "\",\"value\":" << detail::fmt_double(row.value);
    if (!row.label_key.empty()) {
      os << ",\"labels\":{" << detail::json_escape(row.label_key) << ':'
         << detail::json_escape(row.label_value) << '}';
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

#if PLS_OBSERVE

/// The JSONL file exporter; lifecycle mirrors TraceRecorder.
class MetricsLog {
 public:
  static MetricsLog& global() {
    static MetricsLog log;
    return log;
  }

  /// Arm the exporter: the first enable registers an atexit flush, so an
  /// early exit() still writes the configured log. The singletons the
  /// flush reads are touched *before* registration — atexit handlers run
  /// interleaved with static destructors in reverse order, so anything
  /// constructed after the handler registers would be destroyed before it
  /// runs.
  void enable() {
    (void)MetricsRegistry::global();
    (void)RunRegistry::global();
    (void)MetricsSampler::global();
    sink_.arm_at_exit([] { MetricsLog::global().flush(); });
  }

  /// Destination for flush(); empty disables file output. Initialised
  /// from the PLS_METRICS_PATH environment variable.
  void set_output_path(std::string path) { sink_.set_path(std::move(path)); }
  std::string output_path() const { return sink_.path(); }

  /// Write every retained run record, then every retained sample, one
  /// JSON object per line. A no-op when no path is set or there is
  /// nothing to write; returns whether the whole file was written.
  /// Idempotent — flushing twice rewrites the same content.
  bool flush() const {
    return sink_.write([] {
      std::string text;
      for (const RunRecord& r : RunRegistry::global().records()) {
        text += run_record_json(r) + '\n';
      }
      for (const MetricsSample& s : MetricsSampler::global().ring().samples()) {
        text += sample_json(s) + '\n';
      }
      return text;
    });
  }

 private:
  MetricsLog() = default;

  FileSink sink_{"PLS_METRICS_PATH"};
};

/// Scoped telemetry session: clears stale ring/run state, arms the JSONL
/// log, and starts the background sampler on construction; stops the
/// sampler, captures one final sample, and flushes on destruction — also
/// when the scope unwinds on an exception. `interval_ms` 0 defers to
/// PLS_METRICS_INTERVAL_MS (still 0: no sampling thread, run records and
/// the final flush still happen). An explicit `path` overrides the log's
/// configured destination for this and later sessions.
class MetricsSession {
 public:
  explicit MetricsSession(unsigned interval_ms = 0, std::string path = {}) {
    MetricsLog& log = MetricsLog::global();
    if (!path.empty()) log.set_output_path(std::move(path));
    log.enable();
    MetricsSampler& sampler = MetricsSampler::global();
    sampler.ring().clear();
    RunRegistry::global().clear();
    sampler.start(interval_ms);
  }

  MetricsSession(const MetricsSession&) = delete;
  MetricsSession& operator=(const MetricsSession&) = delete;

  ~MetricsSession() {
    MetricsSampler& sampler = MetricsSampler::global();
    sampler.stop();
    sampler.ring().push(MetricsRegistry::global().collect());
    MetricsLog::global().flush();
  }
};

#else  // !PLS_OBSERVE — empty shells; every call site compiles to nothing.

class MetricsLog {
 public:
  static MetricsLog& global() {
    static MetricsLog log;
    return log;
  }
  void enable() noexcept {}
  void set_output_path(std::string) noexcept {}
  std::string output_path() const { return {}; }
  bool flush() const noexcept { return false; }
};

struct MetricsSession {
  explicit MetricsSession(unsigned = 0, std::string = {}) noexcept {}
  MetricsSession(const MetricsSession&) = delete;
  MetricsSession& operator=(const MetricsSession&) = delete;
};

#endif  // PLS_OBSERVE

}  // namespace pls::observe
