// dc-skeletons: PowerFunction divide-and-conquer through
// powerlist/executors.hpp. One operation is a round of FftFunction (zip
// decomposition), SklanskyScanFunction and MssFunction (tie) through
// execute_forkjoin on the benchmark pool. The FFT and scan combines
// allocate, unlike horner-zip's. References are execute_sequential over
// the same inputs and leaf sizes, built at set-up.
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "forkjoin/pool.hpp"
#include "harness.hpp"
#include "ledger.hpp"
#include "observe/run_registry.hpp"
#include "powerlist/algorithms/fft.hpp"
#include "powerlist/algorithms/mss.hpp"
#include "powerlist/algorithms/scan.hpp"
#include "powerlist/executors.hpp"
#include "support/simd.hpp"

namespace perfbench {
namespace {

namespace pl = pls::powerlist;
using pl::Complex;

// Sizes and leaves keep each skeleton at a few milliseconds with tens to
// a few thousand leaves: enough slack for 3 workers, without so many
// fork/steal/wake round trips that the host's vCPU scheduling noise
// dominates the round.
constexpr std::size_t kFftN = std::size_t{1} << 14;
constexpr std::size_t kFftLeaf = 8;
constexpr std::size_t kScanN = std::size_t{1} << 18;
constexpr std::size_t kScanLeaf = std::size_t{1} << 12;
constexpr std::size_t kMssN = std::size_t{1} << 21;
constexpr std::size_t kMssLeaf = std::size_t{1} << 14;
constexpr std::size_t kRoundElems = kFftN + kScanN + kMssN;
// Fork-join runs the same combine tree as the sequential executor, but
// the comparison still allows re-association: |got - ref| <= kTol * scale,
// scale = sum of input magnitudes (bounds every output's magnitude). MSS
// is over integers and compared exactly.
constexpr double kTol = 1e-9;

using ScanFn = pl::SklanskyScanFunction<double, pls::simd::Plus>;

class DcSkeletons final : public Workload {
 public:
  explicit DcSkeletons(std::uint64_t seed)
      : pool_(kWorkers), scan_fn_(pls::simd::Plus{}) {
    Rng rng(stream_seed(seed, 3));
    fft_in_.resize(kFftN);
    for (Complex& c : fft_in_) {
      c = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
      fft_scale_ += std::abs(c);
    }
    scan_in_.resize(kScanN);
    for (double& v : scan_in_) {
      v = rng.uniform(-1.0, 1.0);
      scan_scale_ += std::fabs(v);
    }
    mss_in_.resize(kMssN);
    for (std::int64_t& v : mss_in_) {
      v = static_cast<std::int64_t>(rng.next() % 2001) - 1000;
    }
    fft_ref_ = fft_seq();
    scan_ref_ = scan_seq();
    mss_ref_ = mss_seq();
  }

  PassResult run(PassContext& ctx) override {
    for (int i = 0; i < 2; ++i) keep(fft_par());
    keep(scan_par());
    keep(mss_par());

    PassResult out;
    Trace& tr = ctx.trace;
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(ctx.seconds * 1e9);
    for (std::uint64_t op = 0; now_ns() < deadline; ++op) {
      const bool traced = ctx.traced(op);
      tr.enabled = traced;
      std::vector<Complex> fft;
      pl::PowerArray<double> scan;
      pl::MssState<std::int64_t> mss;
      bool ok = true;
      {
        Scope root(tr, "op", op);
        const std::uint64_t runs0 = pls::observe::RunRegistry::global().total();
        const std::int64_t t0 = now_ns();
        try {
          {
            Scope s(tr, "powerlist.fft", op);
            const PoolMark mark(pool_, traced);
            fft = fft_par();
            if (traced) mark.attach(s);
          }
          {
            Scope s(tr, "powerlist.scan", op);
            const PoolMark mark(pool_, traced);
            scan = scan_par();
            if (traced) mark.attach(s);
          }
          {
            Scope s(tr, "powerlist.mss", op);
            const PoolMark mark(pool_, traced);
            mss = mss_par();
            if (traced) mark.attach(s);
          }
        } catch (...) {
          ok = false;
        }
        const std::int64_t t1 = now_ns();
        if (traced) {
          root.counts(static_cast<double>(
              pls::observe::RunRegistry::global().total() - runs0));
        }
        out.samples.push_back({t0 - start, t1 - t0, kRoundElems, traced});
      }
      if (ctx.reference_after(op)) {
        const std::uint64_t ref_op = ctx.reference_op(op);
        tr.enabled = true;
        Scope ref(tr, "reference", ref_op);
        {
          Scope s(tr, "powerlist.fft_seq", ref_op);
          keep(fft_seq());
        }
        {
          Scope s(tr, "powerlist.scan_seq", ref_op);
          keep(scan_seq());
        }
        {
          Scope s(tr, "powerlist.mss_seq", ref_op);
          keep(mss_seq());
        }
        {
          Scope s(tr, "forkjoin.empty_tree", ref_op);
          const PoolMark mark(pool_, true);
          empty_tree(pool_, tree_depth(kFftN / kFftLeaf));
          empty_tree(pool_, tree_depth(kScanN / kScanLeaf));
          empty_tree(pool_, tree_depth(kMssN / kMssLeaf));
          mark.attach(s);
        }
      }
      if (ok && static_cast<std::int64_t>(op) == ctx.perturb_op) {
        scan[kScanN / 2] += scan_scale_;
      }
      ++out.attempted;
      if (!ok || !matches(fft, scan, mss)) ++out.failed;
    }
    tr.enabled = false;

    double tasks = 0.0, steals = 0.0;
    for (const char* sk : {"fft", "scan", "mss"}) {
      const std::string name = std::string("powerlist.") + sk;
      const double par = tr.median_ms(name);
      out.layer[name + "_ms"] = par;
      out.layer[name + "_par_over_seq"] = par / tr.median_ms(name + "_seq");
      tasks += tr.sum_a(name);
      steals += tr.sum_b(name);
    }
    const double ops = static_cast<double>(tr.count("powerlist.fft"));
    out.layer["forkjoin.empty_tree_ms"] = tr.median_ms("forkjoin.empty_tree");
    out.layer["forkjoin.tasks_per_op"] = tasks / ops;
    out.layer["forkjoin.steals_per_op"] = steals / ops;
    out.layer["observe.run_records_per_kelem"] =
        tr.sum_a("op") / (static_cast<double>(tr.count("op")) *
                          static_cast<double>(kRoundElems) / 1e3);
    return out;
  }

 private:
  std::vector<Complex> fft_par() {
    return pl::execute_forkjoin(pool_, fft_fn_, fft_view(), pl::NoContext{},
                                kFftLeaf);
  }
  std::vector<Complex> fft_seq() const {
    return pl::execute_sequential(fft_fn_, fft_view(), pl::NoContext{},
                                  kFftLeaf);
  }
  pl::PowerArray<double> scan_par() {
    return pl::execute_forkjoin(pool_, scan_fn_, scan_view(), pl::NoContext{},
                                kScanLeaf);
  }
  pl::PowerArray<double> scan_seq() const {
    return pl::execute_sequential(scan_fn_, scan_view(), pl::NoContext{},
                                  kScanLeaf);
  }
  pl::MssState<std::int64_t> mss_par() {
    return pl::execute_forkjoin(pool_, mss_fn_, mss_view(), pl::NoContext{},
                                kMssLeaf);
  }
  pl::MssState<std::int64_t> mss_seq() const {
    return pl::execute_sequential(mss_fn_, mss_view(), pl::NoContext{},
                                  kMssLeaf);
  }

  pl::PowerListView<const Complex> fft_view() const {
    return pl::PowerListView<const Complex>::over(fft_in_);
  }
  pl::PowerListView<const double> scan_view() const {
    return pl::PowerListView<const double>::over(scan_in_);
  }
  pl::PowerListView<const std::int64_t> mss_view() const {
    return pl::PowerListView<const std::int64_t>::over(mss_in_);
  }

  bool matches(const std::vector<Complex>& fft,
               const pl::PowerArray<double>& scan,
               const pl::MssState<std::int64_t>& mss) const {
    if (fft.size() != fft_ref_.size() || scan.size() != scan_ref_.size()) {
      return false;
    }
    for (std::size_t i = 0; i < fft.size(); ++i) {
      if (!within_tol(fft[i].real(), fft_ref_[i].real(), kTol, fft_scale_) ||
          !within_tol(fft[i].imag(), fft_ref_[i].imag(), kTol, fft_scale_)) {
        return false;
      }
    }
    for (std::size_t i = 0; i < scan.size(); ++i) {
      if (!within_tol(scan[i], scan_ref_[i], kTol, scan_scale_)) return false;
    }
    return mss == mss_ref_;
  }

  pls::forkjoin::ForkJoinPool pool_;
  pl::FftFunction fft_fn_;
  ScanFn scan_fn_;
  pl::MssFunction<std::int64_t> mss_fn_;
  std::vector<Complex> fft_in_;
  std::vector<double> scan_in_;
  std::vector<std::int64_t> mss_in_;
  std::vector<Complex> fft_ref_;
  pl::PowerArray<double> scan_ref_;
  pl::MssState<std::int64_t> mss_ref_;
  double fft_scale_ = 0.0;
  double scan_scale_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_dc_skeletons(std::uint64_t seed) {
  return std::make_unique<DcSkeletons>(seed);
}

}  // namespace perfbench
