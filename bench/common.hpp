// Shared plumbing for the figure-reproduction harnesses.
//
// Environment knobs (all optional):
//   PLS_BENCH_REPS      repetitions per configuration (default 3; the
//                       paper used 5 — set PLS_BENCH_REPS=5 to match)
//   PLS_BENCH_MIN_LOG2  smallest problem size exponent (default 20)
//   PLS_BENCH_MAX_LOG2  cap on the largest problem size (default 26, the
//                       paper's maximum; lower it for quick runs)
//   PLS_BENCH_CORES     simulated processor count (default 8, the paper's
//                       machine)
//   PLS_BENCH_JSON_DIR  directory for the per-run metric files
//                       (BENCH_<name>.json, default: current directory)
//
// Command-line flags (parse_args; they override the environment):
//   --json <path>       write the metric file to <path> instead of
//                       PLS_BENCH_JSON_DIR/BENCH_<name>.json
//   --runs <N>          repetitions per configuration
//   --sizes 2^A..2^B    problem-size range (also accepts plain "A..B")
//   --cores <N>         simulated processor count
//
// The JSON files are schema-versioned (kBenchSchemaVersion): schema 2
// adds per-run sample arrays, p50/p90, latency-histogram summaries and
// measured critical-path stats — the format bench/regress.py consumes
// (docs/benchmarking.md documents every field).
#pragma once

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "observe/config.hpp"
#include "observe/counters.hpp"
#include "observe/critical_path.hpp"
#include "observe/histogram.hpp"
#include "observe/metrics.hpp"
#include "streams/plan.hpp"
#include "support/stats.hpp"
#include "support/stopwatch.hpp"

namespace pls::bench {

/// Version of the BENCH_*.json format (bumped when fields change shape).
inline constexpr unsigned kBenchSchemaVersion = 2;

/// Flag overrides; zero/empty means "not set, fall back to environment".
struct BenchOptions {
  std::string json_path;
  int runs = 0;
  unsigned min_lg = 0;
  unsigned max_lg = 0;
  unsigned cores = 0;
};

inline BenchOptions& options() {
  static BenchOptions o;
  return o;
}

/// Parse "2^A..2^B" (or "A..B") into [min_lg, max_lg]; false on junk.
inline bool parse_sizes(const char* spec, unsigned& min_lg,
                        unsigned& max_lg) {
  const char* p = spec;
  auto read_exp = [&](unsigned& out) {
    if (std::strncmp(p, "2^", 2) == 0) p += 2;
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p || v < 1 || v > 62) return false;
    out = static_cast<unsigned>(v);
    p = end;
    return true;
  };
  unsigned lo = 0, hi = 0;
  if (!read_exp(lo)) return false;
  if (std::strncmp(p, "..", 2) != 0) return false;
  p += 2;
  if (!read_exp(hi)) return false;
  if (*p != '\0' || lo > hi) return false;
  min_lg = lo;
  max_lg = hi;
  return true;
}

/// Unified flag protocol for the figure harnesses. Returns false (after
/// printing usage) on an unknown or malformed flag — callers exit non-zero.
inline bool parse_args(int argc, char** argv) {
  BenchOptions& o = options();
  bool ok = true;
  for (int i = 1; i < argc && ok; ++i) {
    const std::string a = argv[i];
    const char* v = (i + 1 < argc) ? argv[i + 1] : nullptr;
    if (a == "--json" && v != nullptr) {
      o.json_path = v;
      ++i;
    } else if (a == "--runs" && v != nullptr) {
      const long n = std::strtol(v, nullptr, 10);
      ok = n >= 1;
      o.runs = static_cast<int>(n);
      ++i;
    } else if (a == "--sizes" && v != nullptr) {
      ok = parse_sizes(v, o.min_lg, o.max_lg);
      ++i;
    } else if (a == "--cores" && v != nullptr) {
      const long n = std::strtol(v, nullptr, 10);
      ok = n >= 1;
      o.cores = static_cast<unsigned>(n);
      ++i;
    } else {
      ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr,
                 "usage: %s [--json out.json] [--runs N] "
                 "[--sizes 2^A..2^B] [--cores N]\n",
                 argv[0]);
  }
  return ok;
}

inline long env_long(const char* name, long fallback) {
  if (const char* v = std::getenv(name)) {
    const long parsed = std::strtol(v, nullptr, 10);
    if (parsed > 0) return parsed;
  }
  return fallback;
}

inline int repetitions() {
  if (options().runs > 0) return options().runs;
  return static_cast<int>(env_long("PLS_BENCH_REPS", 3));
}

inline unsigned min_log2() {
  if (options().min_lg > 0) return options().min_lg;
  return static_cast<unsigned>(env_long("PLS_BENCH_MIN_LOG2", 20));
}

inline unsigned max_log2() {
  if (options().max_lg > 0) return options().max_lg;
  return static_cast<unsigned>(env_long("PLS_BENCH_MAX_LOG2", 26));
}

inline unsigned simulated_cores() {
  if (options().cores > 0) return options().cores;
  return static_cast<unsigned>(env_long("PLS_BENCH_CORES", 8));
}

/// Run `fn` `reps` times; returns wall-clock stats in milliseconds.
template <typename Fn>
SampleStats time_ms(Fn&& fn, int reps) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    samples.push_back(sw.elapsed_ms());
  }
  return summarize(std::move(samples));
}

/// A value sink preventing dead-code elimination of benchmark results.
inline void keep(double v) {
  static volatile double sink = 0.0;
  sink = sink + v;
}

// ---------------------------------------------------------------------------
// Per-run metric files.
//
// Every figure harness emits, next to its human-readable table, a machine-
// readable BENCH_<name>.json: one object with a "rows" array whose entries
// carry the table columns plus the observability metrics (per-worker steal
// counts, split-tree shape, counter totals). The encoder below is the
// minimal JSON subset the benches need — objects, arrays, numbers, strings.

/// Scalar encoders.
struct Json {
  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
  }
  static std::string num(std::uint64_t v) { return std::to_string(v); }
  static std::string num(long v) { return std::to_string(v); }
  static std::string num(unsigned v) { return std::to_string(v); }

  static std::string str(const std::string& s) {
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

  /// Array of already-encoded values.
  static std::string arr(const std::vector<std::string>& encoded) {
    std::string out = "[";
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      if (i != 0) out += ',';
      out += encoded[i];
    }
    out += ']';
    return out;
  }

  template <typename T>
  static std::string num_arr(const std::vector<T>& xs) {
    std::vector<std::string> encoded;
    encoded.reserve(xs.size());
    for (const T& x : xs) encoded.push_back(num(x));
    return arr(encoded);
  }
};

/// Order-preserving JSON object builder.
class JsonObject {
 public:
  JsonObject& field(const std::string& key, double v) {
    return raw(key, Json::num(v));
  }
  JsonObject& field(const std::string& key, std::uint64_t v) {
    return raw(key, Json::num(v));
  }
  JsonObject& field(const std::string& key, long v) {
    return raw(key, Json::num(v));
  }
  JsonObject& field(const std::string& key, unsigned v) {
    return raw(key, Json::num(v));
  }
  JsonObject& field(const std::string& key, const std::string& v) {
    return raw(key, Json::str(v));
  }
  JsonObject& field(const std::string& key, const char* v) {
    return raw(key, Json::str(v));
  }

  /// Insert an already-encoded JSON value (array, nested object, ...).
  JsonObject& raw(const std::string& key, std::string encoded) {
    if (!body_.empty()) body_ += ',';
    body_ += Json::str(key);
    body_ += ':';
    body_ += std::move(encoded);
    return *this;
  }

  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Append one run's counter totals to a row under `<prefix>` names. The
/// field set comes from the canonical table (observe::kCounterFields, the
/// same one the Prometheus exposition walks) so the bench schema and the
/// exporter can never drift apart. With PLS_OBSERVE=0 the fields are
/// emitted as zeros.
inline void counter_fields(JsonObject& row, const std::string& prefix,
                           const observe::CounterTotals& t) {
  for (const observe::CounterField& f : observe::kCounterFields) {
    row.field(prefix + f.name, t.*f.member);
  }
}

/// Append one run's ExecutionPlan to a row under `<prefix>` names —
/// schema-2 `plan_*` fields. Verdicts are 0/1 ints; names (terminal,
/// origin, reasons, drive, grain source, kernel) are strings, which
/// regress.py skips when comparing numerics.
inline void plan_fields(JsonObject& row, const std::string& prefix,
                        const streams::ExecutionPlan& p) {
  row.field(prefix + "terminal", streams::terminal_name(p.terminal))
      .field(prefix + "origin", streams::origin_name(p.origin))
      .field(prefix + "dps", static_cast<std::uint64_t>(p.dps ? 1 : 0))
      .field(prefix + "dps_reason", streams::reason_name(p.dps_reason))
      .field(prefix + "drive", streams::drive_name(p.drive))
      .field(prefix + "grain", p.grain)
      .field(prefix + "grain_source",
             streams::grain_source_name(p.grain_source))
      .field(prefix + "auto_grain",
             static_cast<std::uint64_t>(
                 p.grain_source == streams::GrainSource::kAutoTuned ? 1 : 0))
      .field(prefix + "kernel", streams::kernel_name(p.kernel))
      .field(prefix + "stages", static_cast<std::uint64_t>(p.stages))
      .field(prefix + "parallelism",
             static_cast<std::uint64_t>(p.parallelism));
}

/// Append one timing series' summary under `<prefix>` names: mean, p50,
/// p90, min/max, relative stddev and the raw per-run samples — schema-2
/// rows carry the full sample so regress.py can recompute any quantile.
inline void stats_fields(JsonObject& row, const std::string& prefix,
                         const SampleStats& s) {
  row.field(prefix + "ms", s.mean)
      .field(prefix + "p50_ms", s.median)
      .field(prefix + "p90_ms", s.p90)
      .field(prefix + "min_ms", s.min)
      .field(prefix + "max_ms", s.max)
      .field(prefix + "rsd", s.rel_stddev())
      .raw(prefix + "runs_ms", Json::num_arr(s.samples));
}

/// One latency histogram as a nested JSON object: count + p50/p90/mean/max
/// (nanoseconds for time metrics, raw units otherwise).
inline std::string histogram_json(const observe::HistogramSnapshot& h,
                                  double scale) {
  JsonObject o;
  o.field("count", h.total)
      .field("p50", h.quantile(0.5, scale))
      .field("p90", h.quantile(0.9, scale))
      .field("mean", h.mean(scale))
      .field("max", h.max(scale));
  return o.str();
}

/// Append every metric's histogram summary under `<prefix><metric>`.
/// Tick-recorded metrics are converted to nanoseconds; queue depth stays
/// in tasks. Empty (all-zero) objects with PLS_OBSERVE=0.
inline void histogram_fields(JsonObject& row, const std::string& prefix,
                             const observe::HistogramSetSnapshot& h) {
  const double ns = observe::kEnabled ? observe::ns_per_tick() : 1.0;
  for (std::size_t i = 0; i < observe::kMetricCount; ++i) {
    const auto m = static_cast<observe::Metric>(i);
    const double scale = observe::metric_is_time(m) ? ns : 1.0;
    row.raw(prefix + observe::metric_name(m),
            histogram_json(h.metric[i], scale));
  }
}

/// Append measured critical-path stats under `<prefix>` names: work T1,
/// span T∞, parallelism, per-phase attribution and tree shape. All zeros
/// when the run was not profiled (or PLS_OBSERVE=0).
inline void cp_fields(JsonObject& row, const std::string& prefix,
                      const observe::CriticalPathStats& cp) {
  row.field(prefix + "work_ms", cp.work_ns / 1e6)
      .field(prefix + "span_ms", cp.span_ns / 1e6)
      .field(prefix + "parallelism", cp.parallelism())
      .field(prefix + "split_ms", cp.phases.split_ns / 1e6)
      .field(prefix + "accumulate_ms", cp.phases.accumulate_ns / 1e6)
      .field(prefix + "combine_ms", cp.phases.combine_ns / 1e6)
      .field(prefix + "nodes", static_cast<std::uint64_t>(cp.nodes))
      .field(prefix + "leaves", static_cast<std::uint64_t>(cp.leaves))
      .field(prefix + "max_depth", cp.max_depth);
}

/// Append the continuous-telemetry series gathered by a MetricsSession
/// under doc-level `metrics_*` keys: sample count, sample timestamps, and
/// the per-sample pool utilization / starvation-ratio means (averaged over
/// pools when several were alive). regress.py skips `metrics_*` keys —
/// they describe the run environment, not the measured figure — so these
/// ride along without widening the regression gate. No-op rows (count 0,
/// empty arrays) with PLS_OBSERVE=0 or when no sampler ran.
inline void metrics_fields(JsonObject& doc,
                           const std::vector<observe::MetricsSample>& samples) {
  std::vector<double> t_ms, utilization, starvation;
  t_ms.reserve(samples.size());
  for (const observe::MetricsSample& s : samples) {
    t_ms.push_back(s.t_ms);
    double util_sum = 0.0, starve_sum = 0.0;
    std::size_t util_n = 0, starve_n = 0;
    for (const observe::MetricRow& row : s.rows) {
      if (row.name == "pls_pool_utilization") {
        util_sum += row.value;
        ++util_n;
      } else if (row.name == "pls_pool_starvation_ratio") {
        starve_sum += row.value;
        ++starve_n;
      }
    }
    utilization.push_back(util_n != 0 ? util_sum / static_cast<double>(util_n)
                                      : 0.0);
    starvation.push_back(
        starve_n != 0 ? starve_sum / static_cast<double>(starve_n) : 0.0);
  }
  doc.field("metrics_samples", static_cast<std::uint64_t>(samples.size()))
      .raw("metrics_t_ms", Json::num_arr(t_ms))
      .raw("metrics_utilization", Json::num_arr(utilization))
      .raw("metrics_starvation_ratio", Json::num_arr(starvation));
}

/// Destination for BENCH_<name>.json: the --json flag when given,
/// otherwise PLS_BENCH_JSON_DIR/BENCH_<name>.json.
inline std::string bench_json_path(const std::string& bench_name) {
  if (!options().json_path.empty()) return options().json_path;
  std::string dir = ".";
  if (const char* v = std::getenv("PLS_BENCH_JSON_DIR")) dir = v;
  return dir + "/BENCH_" + bench_name + ".json";
}

/// Write `json` to `path`; reports (but does not throw) on failure so a
/// read-only working directory never kills a bench run.
inline void write_json_file(const std::string& path,
                            const std::string& json) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  out << json << '\n';
}

}  // namespace pls::bench
