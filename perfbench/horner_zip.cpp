// horner-zip: the paper's workload (Figures 3/4). One operation is
// evaluate_polynomial_stream(coeffs, x, /*parallel=*/true, cfg) at degree
// 2^20 — 8 MiB of coefficients, larger than one 2 MiB L2 and far smaller
// than L3 — through the PZipSpliterator split tree and forkjoin
// invoke_two. No service code is on this path.
//
// Why not 2^22: each of the 16 zip leaves strides over the whole array,
// so at 32 MiB one call streams ~512 MiB from DRAM and its time tracked
// the host's memory traffic (on a shared 4-vCPU KVM guest: 144-262
// Melem/s across interleaved runs, vs 302-354 Melem/s at 2^20).
#include <cmath>
#include <memory>
#include <vector>

#include "forkjoin/pool.hpp"
#include "harness.hpp"
#include "ledger.hpp"
#include "observe/run_registry.hpp"
#include "powerlist/collector_functions.hpp"
#include "support/simd.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kDegree = std::size_t{1} << 20;
// The parallel split tree re-associates the Horner fold, so results are
// compared with |got - ref| <= kTol * sum_i |a_i| |x|^(n-1-i).
constexpr double kTol = 1e-9;

class HornerZip final : public Workload {
 public:
  explicit HornerZip(std::uint64_t seed) : pool_(kWorkers) {
    Rng rng(stream_seed(seed, 1));
    std::vector<double> c(kDegree);
    for (double& v : c) v = rng.uniform(-0.5, 0.5);
    x_ = rng.uniform(0.9999990, 0.9999996);
    ref_ = pls::simd::horner_chunk_scalar(0.0, x_, c.data(), c.size());
    for (const double v : c) scale_ = scale_ * x_ + std::fabs(v);
    coeffs_ = std::make_shared<const std::vector<double>>(std::move(c));
    cfg_.pool = &pool_;
  }

  PassResult run(PassContext& ctx) override {
    // Warm-up, untimed: lazy state settles and the split tree's leaf
    // count is read off the pool's split counter for the empty-tree floor.
    const auto before = pool_.counter_totals();
    for (int i = 0; i < 2; ++i) keep(evaluate(true));
    const std::uint64_t splits =
        (pool_.counter_totals().splits - before.splits) / 2;
    const unsigned depth = tree_depth(splits + 1);

    PassResult out;
    Trace& tr = ctx.trace;
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(ctx.seconds * 1e9);
    for (std::uint64_t op = 0; now_ns() < deadline; ++op) {
      const bool traced = ctx.traced(op);
      tr.enabled = traced;
      double v = 0.0;
      bool ok = true;
      {
        Scope root(tr, "op", op);
        const std::uint64_t runs0 = pls::observe::RunRegistry::global().total();
        const PoolMark mark(pool_, traced);
        const std::int64_t t0 = now_ns();
        try {
          Scope s(tr, "powerlist.evaluate_par", op);
          v = evaluate(true);
          if (traced) mark.attach(s);
        } catch (...) {
          ok = false;
        }
        const std::int64_t t1 = now_ns();
        // Only the operation's own records: the reference step below goes
        // through the same collect path and appends records of its own.
        if (traced) {
          root.counts(static_cast<double>(
              pls::observe::RunRegistry::global().total() - runs0));
        }
        out.samples.push_back({t0 - start, t1 - t0, kDegree, traced});
      }
      if (ctx.reference_after(op)) {
        const std::uint64_t ref_op = ctx.reference_op(op);
        tr.enabled = true;
        Scope ref(tr, "reference", ref_op);
        {
          Scope s(tr, "powerlist.evaluate_seq", ref_op);
          keep(evaluate(false));
        }
        {
          Scope s(tr, "simd.horner_chunk", ref_op);
          keep(pls::simd::horner_chunk(0.0, x_, coeffs_->data(), coeffs_->size()));
        }
        {
          Scope s(tr, "forkjoin.empty_tree", ref_op);
          const PoolMark tree(pool_, true);
          empty_tree(pool_, depth);
          tree.attach(s);
        }
      }
      if (static_cast<std::int64_t>(op) == ctx.perturb_op) v += scale_;
      ++out.attempted;
      if (!ok || !within_tol(v, ref_, kTol, scale_)) ++out.failed;
    }
    tr.enabled = false;

    const double par = tr.median_ms("powerlist.evaluate_par");
    const double seq = tr.median_ms("powerlist.evaluate_seq");
    const double ops = static_cast<double>(tr.count("powerlist.evaluate_par"));
    out.layer["simd.horner_ns_per_elem"] =
        tr.median_ms("simd.horner_chunk") * 1e6 / static_cast<double>(kDegree);
    out.layer["powerlist.seq_ms"] = seq;
    out.layer["powerlist.par1_ms"] = par;
    out.layer["powerlist.par1_over_seq"] = par / seq;
    out.layer["forkjoin.empty_tree_ms"] = tr.median_ms("forkjoin.empty_tree");
    out.layer["forkjoin.tasks_per_op"] =
        tr.sum_a("powerlist.evaluate_par") / ops;
    out.layer["forkjoin.steals_per_op"] =
        tr.sum_b("powerlist.evaluate_par") / ops;
    out.layer["observe.run_records_per_kelem"] =
        tr.sum_a("op") / (static_cast<double>(tr.count("op")) *
                          static_cast<double>(kDegree) / 1e3);
    return out;
  }

 private:
  double evaluate(bool parallel) {
    return pls::powerlist::evaluate_polynomial_stream(coeffs_, x_, parallel,
                                                      cfg_);
  }

  pls::forkjoin::ForkJoinPool pool_;
  pls::streams::ExecutionConfig cfg_;
  std::shared_ptr<const std::vector<double>> coeffs_;
  double x_ = 0.0;
  double ref_ = 0.0;
  double scale_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_horner_zip(std::uint64_t seed) {
  return std::make_unique<HornerZip>(seed);
}

}  // namespace perfbench
