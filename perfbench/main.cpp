// perfbench: one process, four workloads. `--trace 0` measures one
// workload untraced and prints the end-to-end metrics; `--trace 1` runs
// the per-layer ledger: a short fully traced pass of each other workload,
// then the named workload with half of its operations traced, so every
// per-layer metric is derived from spans in every traced run.
// The last stdout line is the JSON result; the exit code is non-zero on
// any reference mismatch or failed operation.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  // Test hook: corrupt the result of this operation index before its
  // reference check (-1: never). Shows a mismatch is counted.
  std::int64_t perturb_op = -1;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

struct WorkloadSpec {
  const char* name;
  Factory make;
};

const std::vector<WorkloadSpec>& workloads() {
  // Side passes of a traced run go in this order, so for metrics several
  // workloads produce (forkjoin.*) horner-zip's value is the one kept
  // when the traced workload produces none itself.
  static const std::vector<WorkloadSpec> w = {
      {"service-windows", make_service_windows},
      {"fused-chains", make_fused_chains},
      {"dc-skeletons", make_dc_skeletons},
      {"horner-zip", make_horner_zip},
  };
  return w;
}

const std::vector<MetricSpec> kPerLayer = {
    {"simd.horner_ns_per_elem", "ns"},
    {"powerlist.seq_ms", "ms"},
    {"powerlist.par1_ms", "ms"},
    {"powerlist.par1_over_seq", "ratio"},
    {"forkjoin.empty_tree_ms", "ms"},
    {"forkjoin.tasks_per_op", "count"},
    {"forkjoin.steals_per_op", "count"},
    {"loop.map4_ms", "ms"},
    {"loop.flat_map8_ms", "ms"},
    {"streams.map4_ms", "ms"},
    {"streams.map4_static_ms", "ms"},
    {"streams.flat_map8_ms", "ms"},
    {"streams.concat_map4_ms", "ms"},
    {"streams.map4_tax", "ratio"},
    {"streams.map4_static_tax", "ratio"},
    {"streams.flat_map8_tax", "ratio"},
    {"streams.concat_map4_tax", "ratio"},
    {"powerlist.fft_ms", "ms"},
    {"powerlist.scan_ms", "ms"},
    {"powerlist.mss_ms", "ms"},
    {"powerlist.fft_par_over_seq", "ratio"},
    {"powerlist.scan_par_over_seq", "ratio"},
    {"powerlist.mss_par_over_seq", "ratio"},
    {"service.offer_ns_per_elem", "ns"},
    {"service.pump_us", "us"},
    {"service.pump_hit_ratio", "ratio"},
    {"service.elems_per_batch", "count"},
    {"service.backlog_max", "count"},
    {"observe.run_records_per_kelem", "1/kelem"},
    {"loadgen.late_p90_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

// Fully traced side passes are short: they only feed per-layer medians.
constexpr double kSidePassSeconds = 1.0;
// Set-up is repeated and the median reported.
constexpr int kSetupRepeats = 9;

// The environment variables the library reads; the launcher clears or
// pins them and the run records what it saw.
const char* const kEnvVars[] = {"PLS_PARALLELISM", "PLS_AUTO_GRAIN",
                                "PLS_TRACE_PATH", "PLS_METRICS_PATH",
                                "PLS_METRICS_INTERVAL_MS"};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] "
               "[--perturb-op K]\n",
               msg);
  std::exit(2);
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_metric(std::string& json, const char* name, double value,
                  const char* unit) {
  std::printf("metric %-32s %.9g %s\n", name, value, unit);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json.empty() ? "" : ", ", name, value, unit);
  json += buf;
}

int run(int argc, char** argv) {
  Options opt;
  std::string trace_out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(opt.seconds > 0.0)) usage("bad --seconds");
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("bad --trace");
      opt.trace = v[0] == '1';
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--perturb-op") {
      opt.perturb_op = std::strtoll(v, &end, 10);
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed) usage("--seed is required");
  const WorkloadSpec* primary = find_workload(opt.workload);
  if (primary == nullptr) usage("unknown --workload");

  std::printf("run workload=%s seed=%llu seconds=%g trace=%d workers=%u\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, kWorkers);
  for (const char* var : kEnvVars) {
    const char* val = std::getenv(var);
    std::printf("env %s=%s\n", var, val != nullptr ? val : "(unset)");
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string metrics;

  if (!opt.trace) {
    std::vector<double> setups;
    std::unique_ptr<Workload> w;
    for (int i = 0; i < kSetupRepeats; ++i) {
      w.reset();
      const std::int64_t t0 = now_ns();
      w = primary->make(opt.seed);
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    Trace off;
    PassContext ctx{off, TraceMode::kOff, opt.seconds, opt.perturb_op};
    const PassResult r = w->run(ctx);
    w.reset();
    attempted = r.attempted;
    failed = r.failed;
    const EndToEnd e = summarize(r);
    std::printf("samples=%zu slices=%zu\n", e.samples, e.slices);
    print_metric(metrics, "throughput_melem_s", e.throughput_melem_s, "Melem/s");
    print_metric(metrics, "latency_p50_ms", e.latency_p50_ms, "ms");
    print_metric(metrics, "latency_p90_ms", e.latency_p90_ms, "ms");
    print_metric(metrics, "setup_s", median(setups), "s");
    print_metric(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    print_metric(metrics, "success_rate",
                 attempted == 0 ? 0.0
                                : static_cast<double>(attempted - failed) /
                                      static_cast<double>(attempted),
                 "ratio");
  } else {
    std::map<std::string, double> layer;
    std::vector<std::pair<std::string, Trace>> traces;
    std::vector<Sample> primary_samples;
    auto pass = [&](const WorkloadSpec& spec, TraceMode mode, double seconds) {
      traces.emplace_back(spec.name, Trace{});
      Trace& tr = traces.back().second;
      std::unique_ptr<Workload> w = spec.make(opt.seed);
      PassContext ctx{tr, mode, seconds,
                      mode == TraceMode::kAlternate ? opt.perturb_op : -1};
      PassResult r = w->run(ctx);
      attempted += r.attempted;
      failed += r.failed;
      for (const auto& [k, v] : r.layer) layer[k] = v;
      if (mode == TraceMode::kAlternate) primary_samples = std::move(r.samples);
    };
    for (const WorkloadSpec& spec : workloads()) {
      if (&spec != primary) pass(spec, TraceMode::kAll, kSidePassSeconds);
    }
    pass(*primary, TraceMode::kAlternate, opt.seconds);
    layer["trace.overhead_pct"] = trace_overhead_pct(primary_samples);

    for (const auto& [name, tr] : traces) tr.print_summary(name);
    if (!trace_out.empty()) {
      std::FILE* f = std::fopen(trace_out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
        return 3;
      }
      for (const auto& [name, tr] : traces) tr.write_jsonl(f, name);
      std::fclose(f);
      std::printf("spans written to %s\n", trace_out.c_str());
    }
    for (const MetricSpec& m : kPerLayer) {
      const auto it = layer.find(m.name);
      if (it == layer.end()) {
        std::fprintf(stderr, "perfbench: no value for %s\n", m.name);
        return 3;
      }
      print_metric(metrics, m.name, it->second, m.unit);
    }
  }

  const bool correct = failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
