// Fast Fourier Transform over PowerLists (Section II, equation 3).
//
//   fft([a])    = [a]
//   fft(p ⋈ q)  = (P + u × Q) | (P - u × Q)
// with P = fft(p), Q = fft(q), u = powers(p) = (w^0, ..., w^{n-1}) and w
// the (2n)-th principal root of unity. This is the Cooley-Tukey
// decimation-in-time algorithm written with zip deconstruction and tie
// recombination — the flagship example of needing both operators.
//
// Also here: powers(), roots_of_unity() (the table FftFunction caches),
// a naive O(n^2) DFT used as the correctness reference, an iterative
// in-place radix-2 FFT (the conventional optimised formulation, via the
// inv permutation), and the inverse transform for round-trip tests.
#pragma once

#include <array>
#include <cmath>
#include <complex>
#include <cstddef>
#include <mutex>
#include <numbers>
#include <utility>
#include <vector>

#include "powerlist/function.hpp"
#include "powerlist/view.hpp"
#include "powerlist/algorithms/inv_rev.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/simd.hpp"

namespace pls::powerlist {

using Complex = std::complex<double>;

/// powers(p) for a PowerList of length n: (w^0, ..., w^{n-1}), w the
/// (2n)-th principal root of unity, sign -1 for the forward transform.
inline std::vector<Complex> powers(std::size_t n, double sign = -1.0) {
  PLS_CHECK(is_power_of_two(n), "powers() requires a power-of-two length");
  std::vector<Complex> u;
  u.reserve(n);
  const double theta = sign * std::numbers::pi / static_cast<double>(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double a = theta * static_cast<double>(j);
    u.emplace_back(std::cos(a), std::sin(a));
  }
  return u;
}

/// The n-th roots of unity (w^0, ..., w^{n-1}), w = e^{sign·2πi/n}: entry
/// m is {cos(θm), sin(θm)} with θ = sign·2π/n. Since 2π/(2n) and π/n are
/// the same double, the first half of roots_of_unity(2n) equals powers(n)
/// bit for bit.
inline std::vector<Complex> roots_of_unity(std::size_t n, double sign = -1.0) {
  PLS_CHECK(is_power_of_two(n), "roots_of_unity() requires a power of two");
  std::vector<Complex> w;
  w.reserve(n);
  const double theta = sign * 2.0 * std::numbers::pi / static_cast<double>(n);
  for (std::size_t m = 0; m < n; ++m) {
    const double a = theta * static_cast<double>(m);
    w.emplace_back(std::cos(a), std::sin(a));
  }
  return w;
}

/// Naive O(n^2) discrete Fourier transform (reference).
inline std::vector<Complex> dft(PowerListView<const Complex> p,
                                double sign = -1.0) {
  const std::size_t n = p.length();
  std::vector<Complex> out(n);
  const double theta = sign * 2.0 * std::numbers::pi / static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double a = theta * static_cast<double>(k * j);
      acc += p[j] * Complex{std::cos(a), std::sin(a)};
    }
    out[k] = acc;
  }
  return out;
}

/// fft as a PowerFunction: zip deconstruction, butterfly recombination.
/// The basic case on a leaf sublist is a direct DFT of that sublist (the
/// "sequential computation" specialisation Section V describes for leaves
/// where parallel decomposition stopped).
///
/// Twiddles come from a per-object table of roots_of_unity, one entry per
/// length, filled on first use under std::call_once (the hooks are const
/// and run concurrently) and read by every later call: no trig runs after
/// the first transform of a size. A transform of N points keeps at most
/// 2N table entries. The object is therefore neither copyable nor movable.
class FftFunction final : public PowerFunction<Complex, std::vector<Complex>> {
 public:
  explicit FftFunction(double sign = -1.0) : sign_(sign) {}

  DecompositionOp decomposition() const override {
    return DecompositionOp::kZip;
  }

  /// roots_of_unity(n, sign), computed once per n for this object.
  const std::vector<Complex>& roots(std::size_t n) const {
    PLS_CHECK(is_power_of_two(n), "roots() requires a power-of-two length");
    Level& level = levels_[exact_log2(n)];
    std::call_once(level.once, [&] { level.w = roots_of_unity(n, sign_); });
    return level.w;
  }

  /// Direct DFT of the leaf: out[k] = Σ_j leaf[j]·w^{kj}, with w^{kj} read
  /// from roots(n) at kj mod n.
  std::vector<Complex> basic_case(PowerListView<const Complex> leaf,
                                  const NoContext&) const override {
    const std::size_t n = leaf.length();
    if (n == 1) return {leaf[0]};
    const Complex* w = roots(n).data();
    std::vector<Complex> out(n);
    for (std::size_t k = 0; k < n; ++k) {
      Complex acc{0.0, 0.0};
      for (std::size_t j = 0; j < n; ++j) {
        acc += leaf[j] * w[(k * j) & (n - 1)];
      }
      out[k] = acc;
    }
    return out;
  }

  /// The halves' butterfly with u = powers(n), read as the first half of
  /// roots(2n) (the same doubles).
  std::vector<Complex> combine(std::vector<Complex>&& left,
                               std::vector<Complex>&& right, const NoContext&,
                               std::size_t) const override {
    const std::size_t n = left.size();
    const Complex* u = roots(2 * n).data();
    std::vector<Complex> out(2 * n);
    // out[j] = P + u×Q, out[j+n] = P - u×Q (tie recombination), as one
    // vectorized pass over the real/imaginary planes.
    simd::butterfly_chunk(left.data(), right.data(), u, out.data(),
                          out.data() + n, n);
    return out;
  }

  double leaf_cost_ops(std::size_t len) const override {
    return len == 1 ? 1.0 : static_cast<double>(len * len * 8);
  }
  double combine_cost_ops(std::size_t len) const override {
    return static_cast<double>(len) * 10.0;  // twiddle + butterfly per pair
  }

 private:
  struct Level {
    std::once_flag once;
    std::vector<Complex> w;
  };

  double sign_;
  mutable std::array<Level, 64> levels_;
};

/// Iterative in-place radix-2 FFT: inv (bit-reversal) permutation followed
/// by log n butterfly passes. The conventional optimised formulation used
/// as the performance baseline in the FFT bench. Each pass builds its
/// twiddle table once (the same incremental w, w*w_len, ... products the
/// classic inner loop computes) and reuses it across every block of the
/// pass, so the butterflies run as the vectorized chunk kernel instead of
/// a serial complex-multiply dependency chain.
inline void fft_in_place(std::vector<Complex>& a, double sign = -1.0) {
  PLS_CHECK(is_power_of_two(a.size()), "FFT length must be a power of two");
  inv_permute_in_place(a);
  const std::size_t n = a.size();
  std::vector<Complex> u;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double theta =
        sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const Complex w_len{std::cos(theta), std::sin(theta)};
    const std::size_t half = len / 2;
    u.resize(half);
    Complex w{1.0, 0.0};
    for (std::size_t j = 0; j < half; ++j) {
      u[j] = w;
      w *= w_len;
    }
    for (std::size_t i = 0; i < n; i += len) {
      // In-place butterfly: top aliases p and bot aliases q elementwise,
      // which butterfly_chunk permits.
      simd::butterfly_chunk(&a[i], &a[i + half], u.data(), &a[i],
                            &a[i + half], half);
    }
  }
}

/// Inverse FFT (unscaled forward with sign +1, then divide by n).
inline std::vector<Complex> inverse_fft(std::vector<Complex> spectrum) {
  fft_in_place(spectrum, +1.0);
  const double n = static_cast<double>(spectrum.size());
  for (Complex& c : spectrum) c /= n;
  return spectrum;
}

}  // namespace pls::powerlist
