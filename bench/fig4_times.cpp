// FIG4 — reproduces Figure 4 of the paper: average execution times (ms)
// of the sequential and parallel polynomial evaluation for degrees
// 2^20 .. 2^26 (5-run averages in the paper; PLS_BENCH_REPS here).
//
// Series reported:
//   seq_ms       sequential stream evaluation, wall clock (real);
//   par_sim_ms   parallel evaluation on P simulated cores (the host is
//                single-CPU; see DESIGN.md substitutions);
//   par_wall_ms  parallel evaluation wall clock on this host (P threads
//                over 1 cpu — included for honesty, expect ~= seq_ms);
//   map_chain_*  a 4-stage map pipeline over the same coefficients,
//                sequential: fused (push-mode sink chain over the array
//                source), concat (the same maps over Stream::concat of
//                the two coefficient halves — the concat is the fused
//                pipeline's source and forwards its halves' contiguous
//                chunks), and static (the same four maps composed at
//                compile time via Stream::stages(), one inlined loop per
//                chunk) — the trio the perf-smoke gate watches
//                (docs/execution.md, "pipeline fusion" and "static
//                fusion & SIMD chunk kernels");
//   flat_map_fused
//                a fan-out-8 flat_map feeding four map stages and a sum
//                (a one-op StaticChainStage gathering expansions into
//                kFusionChunk batches of the chunk protocol);
//   horner_*     the Horner chunk kernel itself over the coefficient
//                array, blocked/SIMD vs scalar — isolates the kernel
//                speedup from stream transport.
//
// Compiled with -DPLS_BENCH_NOVEC (the fig4_times_novec target, built
// with auto-vectorization disabled) the same workloads emit
// BENCH_fig4_novec.json — the ablation that shows how much of the static
// and kernel wins come from vectorized chunk loops.
// Shape to match: both series grow linearly in n (the algorithm is O(n)),
// with the parallel one lower by roughly the core count; the paper's
// sequential series has a one-off dip at 2^24 (JVM artifact, not
// modelled).
// Besides the table, the run emits schema-versioned BENCH_fig4.json with
// p50/p90 per series and the measured critical path of one profiled
// parallel run per size (--json/--runs/--sizes/--cores, see common.hpp).
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.hpp"
#include "forkjoin/pool.hpp"
#include "observe/critical_path.hpp"
#include "observe/export.hpp"
#include "observe/counters.hpp"
#include "observe/sampler.hpp"
#include "powerlist/collector_functions.hpp"
#include "streams/static_fusion.hpp"
#include "streams/stream.hpp"
#include "support/simd.hpp"
#include "simmachine/costmodel.hpp"
#include "simmachine/scheduler.hpp"
#include "simmachine/trace.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace {

using pls::simmachine::CostModel;
using pls::simmachine::Simulator;
using pls::simmachine::TaskTrace;

std::shared_ptr<const std::vector<double>> make_coefficients(std::size_t n) {
  pls::Xoshiro256 rng(n * 2 + 1);
  std::vector<double> c(n);
  for (auto& v : c) v = rng.next_double() - 0.5;
  return std::make_shared<const std::vector<double>>(std::move(c));
}

// The fusion workload: four map stages over a stream, reduced to a sum.
// The fused chain pays one accept_chunk per stage per batch with the
// per-element loops inlined.
double map_chain(pls::streams::Stream<double> s) {
  return std::move(s)
      .map([](const double& v) { return v * 1.0000001; })
      .map([](const double& v) { return v + 0.25; })
      .map([](const double& v) { return v * v; })
      .map([](const double& v) { return v - 0.125; })
      .reduce(0.0, [](double a, double b) { return a + b; });
}

double run_map_chain(
    const std::shared_ptr<const std::vector<double>>& coeffs) {
  return map_chain(pls::streams::Stream<double>::of_shared(coeffs));
}

// The same chain over Stream::concat of the two coefficient halves: the
// concat becomes the fused pipeline's source, and forwards each half's
// storage as contiguous chunks.
double run_map_chain_concat(
    const std::shared_ptr<const std::vector<double>>& lo,
    const std::shared_ptr<const std::vector<double>>& hi) {
  using pls::streams::Stream;
  return map_chain(
      Stream<double>::concat(Stream<double>::of_shared(lo),
                             Stream<double>::of_shared(hi)));
}

// The same four maps as a compile-time composed stage stack: the chain
// collapses into one StaticChainStage whose per-chunk loop inlines all
// four lambdas — no per-stage accept_chunk hop, and the loop body is a
// pure independent-iteration map the vectorizer handles.
double run_map_chain_static(
    const std::shared_ptr<const std::vector<double>>& coeffs) {
  namespace st = pls::streams::stages;
  return pls::streams::Stream<double>::of_shared(coeffs)
      .stages(st::map([](double v) { return v * 1.0000001; }),
              st::map([](double v) { return v + 0.25; }),
              st::map([](double v) { return v * v; }),
              st::map([](double v) { return v - 0.125; }))
      .reduce(0.0, [](double a, double b) { return a + b; });
}

// The widened-fusion workload: a fan-out-8 flat_map into four map
// stages, reduced to a sum. Each input element allocates an 8-element
// expansion; the fused chain batches whole expansions into accept_chunk
// — the wider the fan, the more transported elements each allocation
// amortises.
double run_flat_map_chain(
    const std::shared_ptr<const std::vector<double>>& coeffs) {
  return pls::streams::Stream<double>::of_shared(coeffs)
      .flat_map([](const double& v) {
        return std::vector<double>{v,          v * 0.5,   v + 0.25,
                                   v * v,      v - 0.125, v * 2.0,
                                   v + 1.0,    v * -0.75};
      })
      .map([](const double& v) { return v * 1.0000001; })
      .map([](const double& v) { return v + 0.0625; })
      .map([](const double& v) { return v * 0.9999999; })
      .map([](const double& v) { return v - 0.125; })
      .reduce(0.0, [](double a, double b) { return a + b; });
}

TaskTrace build_collect_trace(std::size_t n, unsigned cores) {
  const std::size_t target = std::max<std::size_t>(1, n / (4ull * cores));
  unsigned levels = 0;
  std::size_t chunk = n;
  while (chunk > target && chunk % 2 == 0) {
    chunk /= 2;
    ++levels;
  }
  return TaskTrace::balanced(
      levels, n,
      [](std::size_t len) { return 2.0 * static_cast<double>(len); },
      [](std::size_t) { return 4.0; }, [](std::size_t) { return 8.0; });
}

}  // namespace

int main(int argc, char** argv) {
  if (!pls::bench::parse_args(argc, argv)) return 2;
  const int reps = pls::bench::repetitions();
  const unsigned cores = pls::bench::simulated_cores();
  const unsigned min_log2 = pls::bench::min_log2();
  const unsigned max_log2 = pls::bench::max_log2();
  const double x = 0.9999993;

  std::printf("FIG4: execution times (ms) for sequential and parallel "
              "polynomial evaluation\n");
#ifdef PLS_BENCH_NOVEC
  std::printf("(novec ablation build: auto-vectorization disabled)\n");
#endif
  std::printf("simulated cores = %u, repetitions = %d\n\n", cores, reps);

  // Background sampler + run registry for the whole bench (same contract
  // as fig3: PLS_METRICS_INTERVAL_MS cadence, JSONL to PLS_METRICS_PATH on
  // teardown, doc-level metrics_* series below; no-op with PLS_OBSERVE=0).
  pls::observe::MetricsSession metrics_session(
      pls::observe::metrics_interval_env(25));

  pls::forkjoin::ForkJoinPool pool(cores);
  pls::forkjoin::ForkJoinPool one_worker(1);
  pls::TextTable table({"log2(n)", "n", "seq_ms", "seq_rsd", "par1_ms",
                        "par_sim_ms", "par_wall_ms", "par_wall_rsd",
                        "mc_fused_ms", "mc_concat_ms", "mc_static_ms",
                        "fm_fused_ms", "horner_simd", "horner_scal"});

  std::vector<std::string> json_rows;

  for (unsigned lg = min_log2; lg <= max_log2; ++lg) {
    const std::size_t n = std::size_t{1} << lg;
    const auto coeffs = make_coefficients(n);
    const auto lo = std::make_shared<const std::vector<double>>(
        coeffs->begin(), coeffs->begin() + static_cast<std::ptrdiff_t>(n / 2));
    const auto hi = std::make_shared<const std::vector<double>>(
        coeffs->begin() + static_cast<std::ptrdiff_t>(n / 2), coeffs->end());

    const auto seq = pls::bench::time_ms(
        [&] {
          pls::bench::keep(
              pls::powerlist::evaluate_polynomial_stream(coeffs, x, false));
        },
        reps);

    pls::streams::ExecutionConfig cfg;
    cfg.pool = &pool;
    const auto par_wall = pls::bench::time_ms(
        [&] {
          pls::bench::keep(
              pls::powerlist::evaluate_polynomial_stream(coeffs, x, true,
                                                         cfg));
        },
        reps);

    // One-worker parallel path: the calibration source (see fig3).
    pls::streams::ExecutionConfig cfg1;
    cfg1.pool = &one_worker;
    cfg1.min_chunk = std::max<std::uint64_t>(1, n / (4ull * cores));
    const auto par1 = pls::bench::time_ms(
        [&] {
          pls::bench::keep(
              pls::powerlist::evaluate_polynomial_stream(coeffs, x, true,
                                                         cfg1));
        },
        reps);

    const auto mc_fused = pls::bench::time_ms(
        [&] { pls::bench::keep(run_map_chain(coeffs)); }, reps);
    const auto mc_concat = pls::bench::time_ms(
        [&] { pls::bench::keep(run_map_chain_concat(lo, hi)); }, reps);
    const auto mc_static = pls::bench::time_ms(
        [&] { pls::bench::keep(run_map_chain_static(coeffs)); }, reps);
    const auto fm_fused = pls::bench::time_ms(
        [&] { pls::bench::keep(run_flat_map_chain(coeffs)); }, reps);

    // Kernel-level Horner: blocked/SIMD vs scalar over the raw array, no
    // stream transport — the pair behind the simd_kernels toggle of
    // PolynomialValueCollector.
    const auto h_simd = pls::bench::time_ms(
        [&] {
          pls::bench::keep(pls::simd::horner_chunk(0.0, x, coeffs->data(), n));
        },
        reps);
    const auto h_scalar = pls::bench::time_ms(
        [&] {
          pls::bench::keep(
              pls::simd::horner_chunk_scalar(0.0, x, coeffs->data(), n));
        },
        reps);

    const CostModel model = CostModel::calibrated(
        par1.mean * 1e6, 2.0 * static_cast<double>(n));
    const auto sim =
        Simulator(model, cores).run(build_collect_trace(n, cores));

    // One profiled parallel run per size for the measured critical path
    // and latency histograms (no-op with PLS_OBSERVE=0).
    const auto hist_before = pls::observe::aggregate_histograms();
    auto& cp_recorder = pls::observe::CriticalPathRecorder::global();
    cp_recorder.clear();
    cp_recorder.enable();
    pls::Stopwatch prof_sw;
    pls::bench::keep(
        pls::powerlist::evaluate_polynomial_stream(coeffs, x, true, cfg));
    const double prof_wall_ms = prof_sw.elapsed_ms();
    cp_recorder.disable();
    const auto cp = cp_recorder.analyze();
    const auto hist = pls::observe::aggregate_histograms() - hist_before;
    cp_recorder.clear();

    table.add_row({std::to_string(lg), std::to_string(n),
                   pls::TextTable::num(seq.mean),
                   pls::TextTable::num(seq.rel_stddev(), 3),
                   pls::TextTable::num(par1.mean),
                   pls::TextTable::num(sim.makespan_ns / 1e6),
                   pls::TextTable::num(par_wall.mean),
                   pls::TextTable::num(par_wall.rel_stddev(), 3),
                   pls::TextTable::num(mc_fused.mean),
                   pls::TextTable::num(mc_concat.mean),
                   pls::TextTable::num(mc_static.mean),
                   pls::TextTable::num(fm_fused.mean),
                   pls::TextTable::num(h_simd.mean),
                   pls::TextTable::num(h_scalar.mean)});

    pls::bench::JsonObject row;
    row.field("log2_n", lg).field("n", n);
    pls::bench::stats_fields(row, "seq_", seq);
    pls::bench::stats_fields(row, "par1_", par1);
    pls::bench::stats_fields(row, "par_wall_", par_wall);
    pls::bench::stats_fields(row, "map_chain_fused_", mc_fused);
    pls::bench::stats_fields(row, "map_chain_concat_", mc_concat);
    pls::bench::stats_fields(row, "map_chain_static_", mc_static);
    pls::bench::stats_fields(row, "flat_map_fused_", fm_fused);
    pls::bench::stats_fields(row, "horner_simd_", h_simd);
    pls::bench::stats_fields(row, "horner_scalar_", h_scalar);
    row.field("par_sim_ms", sim.makespan_ns / 1e6)
        .field("sim_work_ms", sim.work_ns / 1e6)
        .field("sim_span_ms", sim.span_ns / 1e6)
        .field("sim_brent_ms", sim.brent_bound_ns() / 1e6);
    pls::bench::cp_fields(row, "cp_", cp);
    row.field("cp_wall_ms", prof_wall_ms);
    pls::bench::histogram_fields(row, "hist_", hist);
    json_rows.push_back(row.str());
  }

  table.print();

  // The no-vectorization ablation build writes its own JSON so a normal
  // run is never compared against (or clobbered by) the ablation.
#ifdef PLS_BENCH_NOVEC
  const char* bench_name = "fig4_novec";
#else
  const char* bench_name = "fig4";
#endif
  pls::bench::JsonObject doc;
  doc.field("schema", pls::bench::kBenchSchemaVersion)
      .field("bench", bench_name)
      .field("cores", cores)
      .field("repetitions", static_cast<unsigned>(reps))
      .field("observe", pls::observe::kEnabled ? 1u : 0u)
      .raw("rows", pls::bench::Json::arr(json_rows));
  pls::bench::metrics_fields(
      doc, pls::observe::MetricsSampler::global().ring().samples());
  const std::string json_path = pls::bench::bench_json_path(bench_name);
  pls::bench::write_json_file(json_path, doc.str());
  std::printf("\nper-run metrics: %s\n", json_path.c_str());
  std::printf(
      "\npaper reference (Fig 4): both series grow ~linearly with n;\n"
      "parallel below sequential by roughly the core count; sequential\n"
      "dips once at 2^24 (JVM artifact, not modelled).\n");
  return 0;
}
