// The JPLF-compatibility layer: Section III's framework shape, exercised
// with a reduce (uniform sub-functions) and the polynomial evaluation
// (sub-functions carrying the squared point — the reason JPLF has
// create_left_function/create_right_function).
#include "powerlist/jplf.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "observe/critical_path.hpp"
#include "powerlist/algorithms/polynomial.hpp"
#include "support/rng.hpp"

namespace {

using namespace pls::powerlist;
using namespace pls::powerlist::jplf;
using pls::forkjoin::ForkJoinPool;

/// Sum over tie deconstruction, JPLF shape.
class JplfSum final : public JplfPowerFunction<long, long> {
 public:
  explicit JplfSum(std::size_t threshold = 1) : threshold_(threshold) {}

  long basic_case(const BasePowerList<long>& list) override {
    long acc = 0;
    const auto& v = list.view();
    for (std::size_t i = 0; i < v.length(); ++i) acc += v[i];
    return acc;
  }

  long combine(long l, long r) override { return l + r; }

  std::unique_ptr<JplfPowerFunction<long, long>> create_left_function()
      const override {
    return std::make_unique<JplfSum>(threshold_);
  }
  std::unique_ptr<JplfPowerFunction<long, long>> create_right_function()
      const override {
    return std::make_unique<JplfSum>(threshold_);
  }

  std::size_t basic_threshold() const override { return threshold_; }

 private:
  std::size_t threshold_;
};

/// Equation 4 in JPLF shape: sub-functions carry x^2 (descending phase
/// via function creation, no context parameter).
class JplfVp final : public JplfPowerFunction<double, double> {
 public:
  JplfVp(double x, std::size_t threshold) : x_(x), threshold_(threshold) {}

  double basic_case(const BasePowerList<double>& list) override {
    return horner_ascending(list.view(), x_);
  }

  double combine(double l, double r) override { return l + x_ * r; }

  std::unique_ptr<JplfPowerFunction<double, double>> create_left_function()
      const override {
    return std::make_unique<JplfVp>(x_ * x_, threshold_);
  }
  std::unique_ptr<JplfPowerFunction<double, double>> create_right_function()
      const override {
    return std::make_unique<JplfVp>(x_ * x_, threshold_);
  }

  std::size_t basic_threshold() const override { return threshold_; }

 private:
  double x_;
  std::size_t threshold_;
};

TEST(Jplf, TiePowerListDeconstruction) {
  std::vector<long> data{1, 2, 3, 4};
  TiePowerList<long> list(view_of(data));
  const auto [l, r] = list.deconstruct();
  EXPECT_EQ(l->view().to_vector(), (std::vector<long>{1, 2}));
  EXPECT_EQ(r->view().to_vector(), (std::vector<long>{3, 4}));
}

TEST(Jplf, ZipPowerListDeconstruction) {
  std::vector<long> data{1, 2, 3, 4};
  ZipPowerList<long> list(view_of(data));
  const auto [l, r] = list.deconstruct();
  EXPECT_EQ(l->view().to_vector(), (std::vector<long>{1, 3}));
  EXPECT_EQ(r->view().to_vector(), (std::vector<long>{2, 4}));
}

TEST(Jplf, SumComputeTemplateMethod) {
  std::vector<long> data(256);
  std::iota(data.begin(), data.end(), 1);
  TiePowerList<long> list(view_of(data));
  JplfSum sum;
  EXPECT_EQ(sum.compute(list), 256 * 257 / 2);
}

TEST(Jplf, SumWorksOnZipListsToo) {
  std::vector<long> data(128);
  std::iota(data.begin(), data.end(), 1);
  ZipPowerList<long> list(view_of(data));
  JplfSum sum(4);
  EXPECT_EQ(sum.compute(list), 128 * 129 / 2);
}

TEST(Jplf, BasicThresholdStopsRecursion) {
  std::vector<long> data(64, 1);
  TiePowerList<long> list(view_of(data));
  JplfSum whole(64);  // threshold = whole list: one basic case
  EXPECT_EQ(whole.compute(list), 64);
}

TEST(Jplf, PolynomialMatchesHorner) {
  pls::Xoshiro256 rng(3);
  std::vector<double> coeffs(512);
  for (auto& c : coeffs) c = rng.next_double() - 0.5;
  const double x = 0.98;
  ZipPowerList<double> list(view_of(coeffs));
  for (std::size_t threshold : {1u, 4u, 32u}) {
    JplfVp vp(x, threshold);
    EXPECT_NEAR(vp.compute(list), horner_ascending(view_of(coeffs), x),
                1e-9)
        << "threshold=" << threshold;
  }
}

TEST(Jplf, ParallelComputeMatchesSequential) {
  ForkJoinPool pool(4);
  pls::Xoshiro256 rng(7);
  std::vector<double> coeffs(1024);
  for (auto& c : coeffs) c = rng.next_double() - 0.5;
  const double x = 1.0005;
  ZipPowerList<double> list(view_of(coeffs));
  JplfVp seq(x, 16);
  JplfVp par(x, 16);
  EXPECT_NEAR(par.compute_parallel(pool, list), seq.compute(list), 1e-9);
}

TEST(Jplf, ParallelSumLargeTree) {
  ForkJoinPool pool(4);
  std::vector<long> data(1 << 14);
  std::iota(data.begin(), data.end(), 0);
  TiePowerList<long> list(view_of(data));
  JplfSum sum(64);
  EXPECT_EQ(sum.compute_parallel(pool, list),
            (long{1} << 14) * ((long{1} << 14) - 1) / 2);
}

TEST(Jplf, ParallelComputeRecordsItsCriticalPathTree) {
  // compute_parallel runs on the shared walk: a profiled run sees all 32
  // leaves of 8 and every element.
  if (!pls::observe::kEnabled) GTEST_SKIP() << "observability compiled out";
  ForkJoinPool pool(2);
  std::vector<long> data(256);
  std::iota(data.begin(), data.end(), 0);
  TiePowerList<long> list(view_of(data));
  JplfSum sum(8);
  pls::observe::ProfileSession profile;
  EXPECT_EQ(sum.compute_parallel(pool, list), 255L * 256 / 2);
  const auto stats = profile.stats();
  EXPECT_EQ(stats.leaves, 32u);
  EXPECT_EQ(stats.elements, 256u);
}

TEST(Jplf, AgreesWithIdiomaticPowerFunction) {
  // The two framework styles compute identical results on the same input.
  pls::Xoshiro256 rng(11);
  std::vector<double> coeffs(256);
  for (auto& c : coeffs) c = rng.next_double() - 0.5;
  const double x = 0.93;
  PolynomialFunction<double> idiomatic;
  const double a = execute_sequential(idiomatic, view_of(coeffs), x, 8);
  ZipPowerList<double> list(view_of(coeffs));
  JplfVp jplf_style(x, 8);
  EXPECT_NEAR(jplf_style.compute(list), a, 1e-9);
}

}  // namespace
