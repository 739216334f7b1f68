// fused-chains: sequential streams transport, no fork-join. One operation
// is a round that runs each of four pipeline shapes once over 2^20
// doubles, so every latency sample has the same mix (one mode):
//   map4         the four-map dynamic chain of fig4;
//   map4_static  the same chain composed at compile time via .stages();
//   flat_map8    a fan-out-8 flat_map into four maps;
//   concat_map4  Stream::concat of the two halves into the same maps.
// The traced run's reference step also runs the handwritten loops that
// are the floor each shape's tax is measured against.
#include <cmath>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "observe/run_registry.hpp"
#include "streams/static_fusion.hpp"
#include "streams/stream.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kN = std::size_t{1} << 20;
// Sequential reductions in encounter order; kTol (relative to the sum of
// absolute terms) only absorbs a vectorised re-association.
constexpr double kTol = 1e-9;

using pls::streams::Stream;

inline double m1(double v) { return v * 1.0000001; }
inline double m2(double v) { return v + 0.25; }
inline double m3(double v) { return v * v; }
inline double m4(double v) { return v - 0.125; }
inline double map4(double v) { return m4(m3(m2(m1(v)))); }

inline double g1(double v) { return v * 1.0000001; }
inline double g2(double v) { return v + 0.0625; }
inline double g3(double v) { return v * 0.9999999; }
inline double g4(double v) { return v - 0.125; }
inline double gmap4(double v) { return g4(g3(g2(g1(v)))); }

// The fan-out-8 expansion of one element, written into out[0..8).
inline void expand8(double v, double* out) {
  out[0] = v;
  out[1] = v * 0.5;
  out[2] = v + 0.25;
  out[3] = v * v;
  out[4] = v - 0.125;
  out[5] = v * 2.0;
  out[6] = v + 1.0;
  out[7] = v * -0.75;
}

double loop_map4(const std::vector<double>& in) {
  double acc = 0.0;
  for (const double v : in) acc += map4(v);
  return acc;
}

double loop_flat_map8(const std::vector<double>& in) {
  double acc = 0.0;
  double e[8];
  for (const double v : in) {
    expand8(v, e);
    for (const double x : e) acc += gmap4(x);
  }
  return acc;
}

double sum(double a, double b) { return a + b; }

double run_map4(const std::shared_ptr<const std::vector<double>>& in) {
  return Stream<double>::of_shared(in)
      .map([](const double& v) { return m1(v); })
      .map([](const double& v) { return m2(v); })
      .map([](const double& v) { return m3(v); })
      .map([](const double& v) { return m4(v); })
      .reduce(0.0, sum);
}

double run_map4_static(const std::shared_ptr<const std::vector<double>>& in) {
  namespace st = pls::streams::stages;
  return Stream<double>::of_shared(in)
      .stages(st::map([](double v) { return m1(v); }),
              st::map([](double v) { return m2(v); }),
              st::map([](double v) { return m3(v); }),
              st::map([](double v) { return m4(v); }))
      .reduce(0.0, sum);
}

double run_flat_map8(const std::shared_ptr<const std::vector<double>>& in) {
  return Stream<double>::of_shared(in)
      .flat_map([](const double& v) {
        std::vector<double> e(8);
        expand8(v, e.data());
        return e;
      })
      .map([](const double& v) { return g1(v); })
      .map([](const double& v) { return g2(v); })
      .map([](const double& v) { return g3(v); })
      .map([](const double& v) { return g4(v); })
      .reduce(0.0, sum);
}

double run_concat_map4(const std::shared_ptr<const std::vector<double>>& lo,
                       const std::shared_ptr<const std::vector<double>>& hi) {
  return Stream<double>::concat(Stream<double>::of_shared(lo),
                                Stream<double>::of_shared(hi))
      .map([](const double& v) { return m1(v); })
      .map([](const double& v) { return m2(v); })
      .map([](const double& v) { return m3(v); })
      .map([](const double& v) { return m4(v); })
      .reduce(0.0, sum);
}

class FusedChains final : public Workload {
 public:
  explicit FusedChains(std::uint64_t seed) {
    Rng rng(stream_seed(seed, 2));
    std::vector<double> in(kN);
    for (double& v : in) v = rng.uniform(-1.0, 1.0);
    ref_map4_ = loop_map4(in);
    ref_flat8_ = loop_flat_map8(in);
    double e[8];
    for (const double v : in) {
      scale_map4_ += std::fabs(map4(v));
      expand8(v, e);
      for (const double x : e) scale_flat8_ += std::fabs(gmap4(x));
    }
    lo_ = std::make_shared<const std::vector<double>>(in.begin(),
                                                      in.begin() + kN / 2);
    hi_ = std::make_shared<const std::vector<double>>(in.begin() + kN / 2,
                                                      in.end());
    in_ = std::make_shared<const std::vector<double>>(std::move(in));
  }

  PassResult run(PassContext& ctx) override {
    for (int i = 0; i < 2; ++i) round(ctx.trace, 0);

    PassResult out;
    // A round takes ~0.1 s, so a slice needs seconds to hold a p90.
    out.slice_seconds = 3.0;
    Trace& tr = ctx.trace;
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(ctx.seconds * 1e9);
    for (std::uint64_t op = 0; now_ns() < deadline; ++op) {
      const bool traced = ctx.traced(op);
      tr.enabled = traced;
      Results r;
      bool ok = true;
      {
        Scope root(tr, "op", op);
        const std::uint64_t runs0 = pls::observe::RunRegistry::global().total();
        const std::int64_t t0 = now_ns();
        try {
          r = round(tr, op);
        } catch (...) {
          ok = false;
        }
        const std::int64_t t1 = now_ns();
        if (traced) {
          root.counts(static_cast<double>(
              pls::observe::RunRegistry::global().total() - runs0));
        }
        out.samples.push_back({t0 - start, t1 - t0, 4 * kN, traced});
      }
      if (ctx.reference_after(op)) {
        const std::uint64_t ref_op = ctx.reference_op(op);
        tr.enabled = true;
        Scope ref(tr, "reference", ref_op);
        {
          Scope s(tr, "loop.map4", ref_op);
          keep(loop_map4(*in_));
        }
        {
          Scope s(tr, "loop.flat_map8", ref_op);
          keep(loop_flat_map8(*in_));
        }
      }
      if (static_cast<std::int64_t>(op) == ctx.perturb_op) {
        r.concat_map4 += scale_map4_;
      }
      ++out.attempted;
      if (!ok || !within_tol(r.map4, ref_map4_, kTol, scale_map4_) ||
          !within_tol(r.map4_static, ref_map4_, kTol, scale_map4_) ||
          !within_tol(r.flat_map8, ref_flat8_, kTol, scale_flat8_) ||
          !within_tol(r.concat_map4, ref_map4_, kTol, scale_map4_)) {
        ++out.failed;
      }
    }
    tr.enabled = false;

    for (const char* shape :
         {"map4", "map4_static", "flat_map8", "concat_map4"}) {
      const std::string name(shape);
      const double ms = tr.median_ms("streams." + name);
      const double floor = tr.median_ms(name == "flat_map8" ? "loop.flat_map8"
                                                            : "loop.map4");
      out.layer["streams." + name + "_ms"] = ms;
      out.layer["streams." + name + "_tax"] = ms / floor;
    }
    out.layer["loop.map4_ms"] = tr.median_ms("loop.map4");
    out.layer["loop.flat_map8_ms"] = tr.median_ms("loop.flat_map8");
    out.layer["observe.run_records_per_kelem"] =
        tr.sum_a("op") / (static_cast<double>(tr.count("op")) * 4.0 *
                          static_cast<double>(kN) / 1e3);
    return out;
  }

 private:
  struct Results {
    double map4 = 0.0;
    double map4_static = 0.0;
    double flat_map8 = 0.0;
    double concat_map4 = 0.0;
  };

  Results round(Trace& tr, std::uint64_t op) {
    Results r;
    {
      Scope s(tr, "streams.map4", op);
      r.map4 = run_map4(in_);
    }
    {
      Scope s(tr, "streams.map4_static", op);
      r.map4_static = run_map4_static(in_);
    }
    {
      Scope s(tr, "streams.flat_map8", op);
      r.flat_map8 = run_flat_map8(in_);
    }
    {
      Scope s(tr, "streams.concat_map4", op);
      r.concat_map4 = run_concat_map4(lo_, hi_);
    }
    return r;
  }

  std::shared_ptr<const std::vector<double>> in_, lo_, hi_;
  double ref_map4_ = 0.0;
  double ref_flat8_ = 0.0;
  double scale_map4_ = 0.0;
  double scale_flat8_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_fused_chains(std::uint64_t seed) {
  return std::make_unique<FusedChains>(seed);
}

}  // namespace perfbench
