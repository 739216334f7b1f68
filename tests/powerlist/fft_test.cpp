#include "powerlist/algorithms/fft.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "forkjoin/pool.hpp"
#include "powerlist/executors.hpp"
#include "support/rng.hpp"

namespace {

using namespace pls::powerlist;
using pls::forkjoin::ForkJoinPool;

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  pls::Xoshiro256 rng(seed);
  std::vector<Complex> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    v.emplace_back(rng.next_double() * 2.0 - 1.0,
                   rng.next_double() * 2.0 - 1.0);
  }
  return v;
}

void expect_near(const std::vector<Complex>& a, const std::vector<Complex>& b,
                 double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].real(), b[i].real(), tol) << "re at " << i;
    EXPECT_NEAR(a[i].imag(), b[i].imag(), tol) << "im at " << i;
  }
}

TEST(Fft, PowersAreRootsOfUnity) {
  const auto u = powers(4);
  // w = 8th principal root with negative sign: w^4 = -1... check |u|=1 and
  // u[0] = 1.
  EXPECT_NEAR(u[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(u[0].imag(), 0.0, 1e-12);
  for (const auto& c : u) EXPECT_NEAR(std::abs(c), 1.0, 1e-12);
  // u[2] = w^2 = e^{-i pi/2} = -i.
  EXPECT_NEAR(u[2].real(), 0.0, 1e-12);
  EXPECT_NEAR(u[2].imag(), -1.0, 1e-12);
}

TEST(Fft, SingletonIsIdentity) {
  std::vector<Complex> x{{3.0, -2.0}};
  FftFunction fft;
  const auto out = execute_sequential(fft, view_of(std::as_const(x)));
  expect_near(out, x, 1e-12);
}

TEST(Fft, SizeTwoButterfly) {
  std::vector<Complex> x{{1.0, 0.0}, {2.0, 0.0}};
  FftFunction fft;
  const auto out = execute_sequential(fft, view_of(std::as_const(x)));
  expect_near(out, {{3.0, 0.0}, {-1.0, 0.0}}, 1e-12);
}

TEST(Fft, DeltaHasFlatSpectrum) {
  std::vector<Complex> x(8, Complex{0.0, 0.0});
  x[0] = Complex{1.0, 0.0};
  FftFunction fft;
  const auto out = execute_sequential(fft, view_of(std::as_const(x)));
  for (const auto& c : out) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantSignalConcentratesAtDc) {
  std::vector<Complex> x(16, Complex{1.0, 0.0});
  FftFunction fft;
  const auto out = execute_sequential(fft, view_of(std::as_const(x)));
  EXPECT_NEAR(out[0].real(), 16.0, 1e-9);
  for (std::size_t k = 1; k < out.size(); ++k) {
    EXPECT_NEAR(std::abs(out[k]), 0.0, 1e-9) << k;
  }
}

TEST(Fft, PowerlistMatchesNaiveDft) {
  const auto x = random_signal(64, 7);
  FftFunction fft;
  const auto via_powerlist =
      execute_sequential(fft, view_of(std::as_const(x)));
  const auto via_dft = dft(view_of(std::as_const(x)));
  expect_near(via_powerlist, via_dft, 1e-9);
}

TEST(Fft, LeafSizeSweepAgrees) {
  // Leaves where decomposition stopped compute a direct DFT of the strided
  // sublist (the paper's Section V leaf specialisation); results must not
  // depend on where splitting stops.
  const auto x = random_signal(64, 11);
  FftFunction fft;
  const auto reference = dft(view_of(std::as_const(x)));
  for (std::size_t leaf : {1u, 2u, 4u, 8u, 16u, 64u}) {
    const auto out =
        execute_sequential(fft, view_of(std::as_const(x)), {}, leaf);
    expect_near(out, reference, 1e-9);
  }
}

TEST(Fft, IterativeMatchesPowerlist) {
  const auto x = random_signal(256, 13);
  FftFunction fft;
  const auto via_powerlist =
      execute_sequential(fft, view_of(std::as_const(x)), {}, 4);
  auto iterative = x;
  fft_in_place(iterative);
  expect_near(via_powerlist, iterative, 1e-8);
}

TEST(Fft, ForkJoinMatchesSequential) {
  ForkJoinPool pool(4);
  const auto x = random_signal(128, 17);
  FftFunction fft;
  const auto seq = execute_sequential(fft, view_of(std::as_const(x)), {}, 4);
  const auto par =
      execute_forkjoin(pool, fft, view_of(std::as_const(x)), {}, 4);
  expect_near(par, seq, 1e-12);
}

void expect_bitwise_equal(const std::vector<Complex>& a,
                          const std::vector<Complex>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].real(), b[i].real()) << "re at " << i;
    EXPECT_EQ(a[i].imag(), b[i].imag()) << "im at " << i;
  }
}

TEST(Fft, RootsTableHalfIsPowersExactly) {
  // The combine of two length-n halves reads roots(2n)'s first half in
  // place of powers(n): the doubles must be the same, not just close, so
  // the butterflies produce the same bits as with powers().
  for (const double sign : {-1.0, 1.0}) {
    const FftFunction fft(sign);
    for (std::size_t n = 1; n <= (std::size_t{1} << 14); n <<= 1) {
      const std::vector<Complex>& w = fft.roots(2 * n);
      const std::vector<Complex> u = powers(n, sign);
      ASSERT_EQ(w.size(), 2 * n);
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(w[j].real(), u[j].real()) << "n=" << n << " j=" << j;
        ASSERT_EQ(w[j].imag(), u[j].imag()) << "n=" << n << " j=" << j;
      }
    }
  }
}

TEST(Fft, RootsAreFilledOnceAndReused) {
  const FftFunction fft;
  const std::vector<Complex>& a = fft.roots(64);
  EXPECT_EQ(&fft.roots(64), &a) << "the second call reads the same table";
  EXPECT_EQ(a, roots_of_unity(64));
}

TEST(Fft, ForkJoinBitIdenticalToSequentialAcrossLeafSizes) {
  // Both executors run the same leaves and the same combine tree, reading
  // the same roots table, so the spectra agree to the bit.
  ForkJoinPool pool(3);
  const auto x = random_signal(1024, 37);
  const FftFunction fft;
  for (std::size_t leaf = 1; leaf <= 64; leaf <<= 1) {
    const auto seq =
        execute_sequential(fft, view_of(std::as_const(x)), {}, leaf);
    const auto par =
        execute_forkjoin(pool, fft, view_of(std::as_const(x)), {}, leaf);
    expect_bitwise_equal(par, seq);
  }
}

TEST(Fft, ColdTableSharedAcrossConcurrentPools) {
  // One FftFunction with an empty table, several threads each driving its
  // own pool at the same moment: the call_once fill must hand every
  // caller a complete table, so all spectra are the same bits.
  constexpr int kThreads = 4;
  const auto x = random_signal(std::size_t{1} << 12, 41);
  const FftFunction fft;
  std::vector<std::vector<Complex>> out(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ForkJoinPool pool(2);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      out[t] = execute_forkjoin(pool, fft, view_of(std::as_const(x)), {}, 8);
    });
  }
  for (auto& th : threads) th.join();
  auto reference = x;
  fft_in_place(reference);
  expect_near(out[0], reference, 1e-8);
  for (int t = 1; t < kThreads; ++t) expect_bitwise_equal(out[t], out[0]);
}

TEST(Fft, RoundTripThroughInverse) {
  const auto x = random_signal(128, 19);
  auto spectrum = x;
  fft_in_place(spectrum);
  const auto back = inverse_fft(spectrum);
  expect_near(back, x, 1e-9);
}

TEST(Fft, LinearityProperty) {
  const auto a = random_signal(32, 23);
  const auto b = random_signal(32, 29);
  std::vector<Complex> sum(32);
  for (std::size_t i = 0; i < 32; ++i) sum[i] = a[i] + b[i];
  FftFunction fft;
  const auto fa = execute_sequential(fft, view_of(std::as_const(a)));
  const auto fb = execute_sequential(fft, view_of(std::as_const(b)));
  const auto fsum = execute_sequential(fft, view_of(std::as_const(sum)));
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_NEAR(std::abs(fsum[i] - (fa[i] + fb[i])), 0.0, 1e-9);
  }
}

TEST(Fft, ParsevalEnergyConservation) {
  const auto x = random_signal(64, 31);
  auto spectrum = x;
  fft_in_place(spectrum);
  double time_energy = 0.0, freq_energy = 0.0;
  for (const auto& c : x) time_energy += std::norm(c);
  for (const auto& c : spectrum) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy, time_energy * 64.0, 1e-6);
}

}  // namespace
