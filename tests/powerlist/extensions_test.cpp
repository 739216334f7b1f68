// Tests for the extension algorithms: MSS homomorphism, FFT convolution,
// and the tupling transformation of the paper's reference [22].
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "forkjoin/pool.hpp"
#include "powerlist/algorithms/convolution.hpp"
#include "powerlist/algorithms/mss.hpp"
#include "powerlist/algorithms/polynomial.hpp"
#include "powerlist/executors.hpp"
#include "support/rng.hpp"

namespace {

using namespace pls::powerlist;
using pls::forkjoin::ForkJoinPool;

// ---- MSS -----------------------------------------------------------------

TEST(Mss, KnownCases) {
  const std::vector<int> classic{-2, 1, -3, 4, -1, 2, 1, -5};
  EXPECT_EQ(mss(view_of(classic)), 6);  // [4, -1, 2, 1]
  const std::vector<int> all_negative{-3, -1, -7, -2};
  EXPECT_EQ(mss(view_of(all_negative)), 0);  // empty segment
  const std::vector<int> all_positive{1, 2, 3, 4};
  EXPECT_EQ(mss(view_of(all_positive)), 10);
}

TEST(Mss, MonoidIsAssociative) {
  pls::Xoshiro256 rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto s = [&] {
      return MssState<long>::of(static_cast<long>(rng.next_below(21)) - 10);
    };
    const auto a = s(), b = s(), c = s();
    EXPECT_EQ(mss_combine(mss_combine(a, b), c),
              mss_combine(a, mss_combine(b, c)));
  }
}

class MssSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MssSweep, MatchesKadaneAcrossLeafSizes) {
  pls::Xoshiro256 rng(GetParam());
  std::vector<long> data(GetParam());
  for (auto& v : data) v = static_cast<long>(rng.next_below(41)) - 20;
  const long expected = mss_sequential(view_of(data));
  for (std::size_t leaf : {std::size_t{1}, std::size_t{4}, GetParam()}) {
    EXPECT_EQ(mss(view_of(data), leaf), expected) << "leaf=" << leaf;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MssSweep,
                         ::testing::Values(1, 2, 8, 64, 512, 4096));

TEST(Mss, ForkJoinMatchesSequential) {
  ForkJoinPool pool(4);
  pls::Xoshiro256 rng(17);
  std::vector<long> data(2048);
  for (auto& v : data) v = static_cast<long>(rng.next_below(101)) - 50;
  MssFunction<long> f;
  const auto seq = execute_sequential(f, view_of(data), {}, 32);
  const auto par = execute_forkjoin(pool, f, view_of(data), {}, 32);
  EXPECT_EQ(seq, par);
  EXPECT_EQ(seq.best, mss_sequential(view_of(data)));
}

/// The leaf as a left fold of singleton tuples through mss_combine: the
/// definition the one-pass basic_case must reproduce.
MssState<std::int64_t> mss_fold(const std::vector<std::int64_t>& v) {
  MssState<std::int64_t> acc = MssState<std::int64_t>::of(v[0]);
  for (std::size_t i = 1; i < v.size(); ++i) {
    acc = mss_combine(acc, MssState<std::int64_t>::of(v[i]));
  }
  return acc;
}

TEST(Mss, OnePassLeafEqualsFoldFieldByField) {
  pls::Xoshiro256 rng(23);
  const MssFunction<std::int64_t> f;
  // Random values within ±2^40, so no 2^12-element sum overflows.
  const auto random = [&] {
    return static_cast<std::int64_t>(rng() >> 23) -
           (std::int64_t{1} << 40);
  };
  for (std::size_t n = 1; n <= (std::size_t{1} << 12); n <<= 1) {
    std::vector<std::vector<std::int64_t>> inputs = {
        std::vector<std::int64_t>(n), std::vector<std::int64_t>(n),
        std::vector<std::int64_t>(n), std::vector<std::int64_t>(n, 0)};
    for (auto& v : inputs[0]) v = random();
    for (auto& v : inputs[1]) {
      v = -1 - static_cast<std::int64_t>(rng.next_below(1000));  // < 0
    }
    for (auto& v : inputs[2]) {
      v = 1 + static_cast<std::int64_t>(rng.next_below(1000));  // > 0
    }
    for (std::size_t kind = 0; kind < inputs.size(); ++kind) {
      const auto& v = inputs[kind];
      const auto leaf = f.basic_case(view_of(v), NoContext{});
      const auto fold = mss_fold(v);
      EXPECT_EQ(leaf.best, fold.best) << "n=" << n << " kind=" << kind;
      EXPECT_EQ(leaf.prefix, fold.prefix) << "n=" << n << " kind=" << kind;
      EXPECT_EQ(leaf.suffix, fold.suffix) << "n=" << n << " kind=" << kind;
      EXPECT_EQ(leaf.total, fold.total) << "n=" << n << " kind=" << kind;
      EXPECT_EQ(leaf.best, mss_sequential(view_of(v)))
          << "n=" << n << " kind=" << kind;
    }
  }
}

// ---- convolution -----------------------------------------------------------

TEST(Convolution, NaiveKnownCase) {
  // (1 + 2x)(3 + 4x) = 3 + 10x + 8x^2.
  EXPECT_EQ(convolve_naive({1, 2}, {3, 4}),
            (std::vector<double>{3, 10, 8}));
}

TEST(Convolution, FftMatchesNaive) {
  pls::Xoshiro256 rng(23);
  for (const auto& [na, nb] : {std::pair<std::size_t, std::size_t>{1, 1},
                              {3, 5},
                              {17, 9},
                              {100, 100},
                              {255, 257}}) {
    std::vector<double> a(na), b(nb);
    for (auto& v : a) v = rng.next_double() - 0.5;
    for (auto& v : b) v = rng.next_double() - 0.5;
    const auto naive = convolve_naive(a, b);
    const auto fast = convolve_fft(a, b);
    ASSERT_EQ(fast.size(), naive.size());
    for (std::size_t i = 0; i < naive.size(); ++i) {
      EXPECT_NEAR(fast[i], naive[i], 1e-7) << "at " << i;
    }
  }
}

TEST(Convolution, PolyMultiplyEvaluationConsistency) {
  // (a*b)(x) == a(x) * b(x) for the product coefficients.
  pls::Xoshiro256 rng(29);
  std::vector<double> a(64), b(64);
  for (auto& v : a) v = rng.next_double() - 0.5;
  for (auto& v : b) v = rng.next_double() - 0.5;
  auto product = poly_multiply(a, b);
  product.push_back(0.0);  // pad 127 -> 128 for the PowerList view
  const double x = 0.91;
  EXPECT_NEAR(horner_ascending(view_of(product), x),
              horner_ascending(view_of(a), x) *
                  horner_ascending(view_of(b), x),
              1e-8);
}

TEST(Convolution, DeltaIsIdentity) {
  const std::vector<double> delta{1.0};
  const std::vector<double> p{4.0, -1.0, 2.5};
  EXPECT_EQ(poly_multiply(delta, p), p);
}

// ---- tupling ----------------------------------------------------------------

TEST(Tupling, MatchesEquationFourFunction) {
  pls::Xoshiro256 rng(31);
  std::vector<double> coeffs(256);
  for (auto& c : coeffs) c = rng.next_double() * 2.0 - 1.0;
  const double x = 0.97;
  PolynomialFunction<double> eq4;
  const double via_eq4 = execute_sequential(eq4, view_of(coeffs), x, 4);
  const double via_tupled = polynomial_value_tupled(view_of(coeffs), x, 4);
  EXPECT_NEAR(via_tupled, via_eq4, 1e-9);
  EXPECT_NEAR(via_tupled, horner_ascending(view_of(coeffs), x), 1e-9);
}

TEST(Tupling, PowerComponentIsXToTheLength) {
  const std::vector<double> coeffs(64, 1.0);
  TupledPolynomialFunction<double> f;
  const double x = 1.1;
  const auto out = execute_sequential(f, view_of(coeffs), x, 8);
  EXPECT_NEAR(out.power, std::pow(x, 64.0), 1e-9);
}

class TuplingSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TuplingSweep, AgreesWithHornerAcrossSizesAndLeaves) {
  pls::Xoshiro256 rng(GetParam() * 3 + 1);
  std::vector<double> coeffs(GetParam());
  for (auto& c : coeffs) c = rng.next_double() - 0.5;
  const double x = 0.995;
  const double expected = horner_ascending(view_of(coeffs), x);
  for (std::size_t leaf : {std::size_t{1}, std::size_t{8}, GetParam()}) {
    EXPECT_NEAR(polynomial_value_tupled(view_of(coeffs), x, leaf), expected,
                1e-9)
        << "leaf=" << leaf;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TuplingSweep,
                         ::testing::Values(1, 2, 4, 32, 256, 2048));

TEST(Tupling, ForkJoinMatches) {
  ForkJoinPool pool(4);
  std::vector<double> coeffs(1024, 0.5);
  TupledPolynomialFunction<double> f;
  const double x = 0.999;
  const auto seq = execute_sequential(f, view_of(coeffs), x, 32);
  const auto par = execute_forkjoin(pool, f, view_of(coeffs), x, 32);
  EXPECT_NEAR(seq.value, par.value, 1e-9);
  EXPECT_NEAR(seq.power, par.power, 1e-9);
}

}  // namespace
