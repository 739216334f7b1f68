// Shared machinery of the perfbench harness: the seeded input generator,
// the in-memory span recorder, per-operation samples with their
// slice-median statistics, and reference comparison with a stated
// tolerance. Everything here lives in the benchmark; the library under
// test only ever sees the generated inputs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Every pool the benchmark builds has exactly this many workers; the
// driving thread (closed-loop caller or open-loop generator) is the
// fourth thread of a 4-CPU budget.
inline constexpr unsigned kWorkers = 3;


inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// SplitMix64, kept in the benchmark so a change to the library's own
// generators cannot change the inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

// Derive an independent stream per workload from the run seed.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t salt) {
  Rng r(seed ^ (salt * 0xd1b54a32d192ed03ULL));
  return r.next();
}

double quantile(std::vector<double> v, double q);

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---- tracing ------------------------------------------------------------

// One span: a named interval around a public call the benchmark makes.
// All spans of one operation share `op`; `parent` indexes the enclosing
// span (-1 for an operation's root). `a` and `b` carry counts measured at
// the same boundary (meaning per span name, see README.md).
struct Span {
  std::uint32_t name = 0;
  std::int32_t parent = -1;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double a = 0.0;
  double b = 0.0;
};

// In-memory span recorder for the driving thread. Disabled, begin()
// returns -1 and costs one branch; spans are only written out at exit.
class Trace {
 public:
  bool enabled = false;

  int begin(std::string_view name, std::uint64_t op) {
    if (!enabled) return -1;
    Span s;
    s.name = intern(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }

  void end(int idx, double a = 0.0, double b = 0.0) {
    if (idx < 0) return;
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end_ns = now_ns();
    s.a = a;
    s.b = b;
    stack_.pop_back();
  }

  // Record an already finished span under the currently open one, for a
  // call that is only worth a span once its outcome is known.
  void add(std::string_view name, std::uint64_t op, std::int64_t start_ns,
           std::int64_t end_ns, double a = 0.0, double b = 0.0) {
    if (!enabled) return;
    spans_.push_back(Span{intern(name), stack_.empty() ? -1 : stack_.back(),
                          op, start_ns, end_ns, a, b});
  }

  const std::deque<Span>& spans() const { return spans_; }
  const std::string& name_of(const Span& s) const { return names_[s.name]; }

  // Durations (ms) of every span with this name.
  std::vector<double> durations_ms(std::string_view name) const;
  double median_ms(std::string_view name) const {
    return median(durations_ms(name));
  }
  // Sum of one count field over every span with this name.
  double sum_a(std::string_view name) const;
  double sum_b(std::string_view name) const;
  std::size_t count(std::string_view name) const;
  // Duration minus the time covered by direct children (children of one
  // driving thread never overlap).
  std::vector<std::int64_t> self_ns() const;

  // Append every span, one JSON object a line, tagged with the pass name.
  void write_jsonl(std::FILE* f, std::string_view pass) const;
  // Per-name count, median duration and total self time, for the report.
  void print_summary(std::string_view pass) const;

 private:
  std::uint32_t intern(std::string_view name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  std::vector<std::string> names_;
  std::deque<Span> spans_;  // no reallocation copies mid-run
  std::vector<int> stack_;
};

// RAII span; counts may be attached before it closes.
class Scope {
 public:
  Scope(Trace& t, std::string_view name, std::uint64_t op)
      : trace_(t), idx_(t.begin(name, op)) {}
  ~Scope() { trace_.end(idx_, a_, b_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void counts(double a, double b = 0.0) {
    a_ = a;
    b_ = b;
  }

 private:
  Trace& trace_;
  int idx_;
  double a_ = 0.0;
  double b_ = 0.0;
};

// ---- samples and end-to-end statistics -------------------------------

// One operation (closed loops) or one window (the open loop): when it
// started relative to the run, how long it took, and how many input
// elements it completed.
struct Sample {
  std::int64_t start_ns = 0;
  std::int64_t latency_ns = 0;
  std::uint64_t elems = 0;
  bool traced = false;
};

// ---- reference checks ---------------------------------------------------

// |got - want| <= tol * scale, with `scale` stated by each workload (the
// condition-number scale of the computation). NaN never matches.
inline bool within_tol(double got, double want, double tol, double scale) {
  return std::isfinite(got) && std::fabs(got - want) <= tol * scale;
}

// ---- workload plumbing ----------------------------------------------------

// What a measured pass hands back. `layer` holds the per-layer metrics
// the pass derived from its own spans.
struct PassResult {
  std::vector<Sample> samples;
  bool open_loop = false;
  // Open loop only: elements completed per slice of the schedule, by the
  // time their window was seen (latency samples are a subset of them).
  std::vector<double> slice_elems;
  // Statistics are taken per slice of timed wall time and the median over
  // slices is reported, so host slow phases that cover less than half of
  // the slices do not move the figure. A slice must hold enough samples
  // for its p90.
  double slice_seconds = 1.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> layer;
};

// How a pass traces: never (end-to-end runs), every operation (side
// passes of a traced run), or alternating operations so traced and
// untraced ones share the same host conditions (the traced run's own
// workload, which also yields trace.overhead_pct).
enum class TraceMode { kOff, kAll, kAlternate };

struct PassContext {
  Trace& trace;
  TraceMode mode;
  double seconds;
  std::int64_t perturb_op;

  // Alternating passes run operations in pairs, one traced and one not,
  // with the order inside a pair flipped every pair (traced first in even
  // pairs). Each kind then follows the other kind and the reference step
  // equally often, so trace.overhead_pct measures the spans' cost rather
  // than the neighbouring work.
  bool traced(std::uint64_t op) const {
    if (mode == TraceMode::kAll) return true;
    return mode == TraceMode::kAlternate && ((op ^ (op >> 1)) & 1) == 0;
  }
  // Whether the untimed reference step (sequential floors, handwritten
  // loops) runs after operation `op`: after every operation of a fully
  // traced pass, after each pair of an alternating one.
  bool reference_after(std::uint64_t op) const {
    if (mode == TraceMode::kAll) return true;
    return mode == TraceMode::kAlternate && (op & 1) == 1;
  }
  // The operation whose id the reference step's spans carry: the traced
  // operation of op's pair.
  std::uint64_t reference_op(std::uint64_t op) const {
    if (mode == TraceMode::kAll) return op;
    return (op & ~std::uint64_t{1}) | ((op >> 1) & 1);
  }
};

// A workload: constructing it is the set-up (inputs, references, pool,
// sessions); run() measures for ctx.seconds.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual PassResult run(PassContext& ctx) = 0;
};

using Factory = std::unique_ptr<Workload> (*)(std::uint64_t seed);

std::unique_ptr<Workload> make_horner_zip(std::uint64_t seed);
std::unique_ptr<Workload> make_fused_chains(std::uint64_t seed);
std::unique_ptr<Workload> make_dc_skeletons(std::uint64_t seed);
std::unique_ptr<Workload> make_service_windows(std::uint64_t seed);

struct EndToEnd {
  double throughput_melem_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  std::size_t samples = 0;
  std::size_t slices = 0;
};

// Closed loop: throughput per slice is elements over the summed operation
// time of the slice (verification between operations is not timed).
// Open loop: completed elements over the slice's wall time, over the
// whole slices of the schedule.
EndToEnd summarize(const PassResult& r);

// Ratio of median traced to median untraced operation latency, as a
// percentage over 1 (alternating passes only).
double trace_overhead_pct(const std::vector<Sample>& samples);

// Keeps a computed value observable so the optimizer cannot drop it.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

}  // namespace perfbench
