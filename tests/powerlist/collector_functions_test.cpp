// Tests of the Streams <-> PowerList adaptation layer: the paper's
// Section IV examples executed through the stream pipeline.
#include "powerlist/collector_functions.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "powerlist/algorithms/hadamard.hpp"
#include "powerlist/algorithms/polynomial.hpp"
#include "streams/plan.hpp"
#include "support/simd.hpp"

namespace {

using namespace pls::powerlist;
using pls::forkjoin::ForkJoinPool;
using pls::streams::Stream;
namespace stream_support = pls::streams::stream_support;

std::shared_ptr<const std::vector<double>> shared_doubles(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 0.0);
  return std::make_shared<const std::vector<double>>(std::move(v));
}

// --- the paper's first example: identity through a ZipSpliterator -------

TEST(IdentityExample, ZipSplitZipAllReconstructsSequential) {
  auto data = shared_doubles(16);
  auto sp = std::make_unique<ZipSpliterator<double>>(data);
  auto stream =
      stream_support::from_spliterator<double>(std::move(sp), false);
  const auto out = std::move(stream).collect(to_power_array_zip<double>());
  EXPECT_EQ(out.values(), *data);
}

TEST(IdentityExample, ZipSplitZipAllReconstructsParallel) {
  auto data = shared_doubles(64);
  auto sp = std::make_unique<ZipSpliterator<double>>(data);
  auto stream = stream_support::from_spliterator<double>(std::move(sp), true);
  const auto out = std::move(stream)
                       .with_min_chunk(4)
                       .collect(to_power_array_zip<double>());
  EXPECT_EQ(out.values(), *data);
}

TEST(IdentityExample, ZipParallelCollectIsBitIdenticalOnBothRoutes) {
  // Default grain (one interleaved leaf per worker): strided leaves gather
  // kFusionChunk spans, and both the classic zip_all combine route and
  // the destination-passing route must rebuild the source exactly.
  std::vector<std::unique_ptr<ForkJoinPool>> pools;
  for (unsigned p = 1; p <= 4; ++p) {
    pools.push_back(std::make_unique<ForkJoinPool>(p));
  }
  for (unsigned lg = 0; lg <= 14; ++lg) {
    const std::size_t n = std::size_t{1} << lg;
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = std::sin(static_cast<double>(i) * 0.37) * 1e3 + 1e-7 * i;
    }
    auto data = std::make_shared<const std::vector<double>>(std::move(v));
    for (auto& pool : pools) {
      for (const bool dps : {false, true}) {
        auto sp = std::make_unique<ZipSpliterator<double>>(data);
        const auto out =
            stream_support::from_spliterator<double>(std::move(sp), true)
                .via(*pool)
                .with_sized_sink(dps)
                .collect(to_power_array_zip<double>());
        EXPECT_EQ(pls::streams::last_plan().dps, dps);
        ASSERT_EQ(out.size(), n);
        EXPECT_EQ(std::memcmp(out.values().data(), data->data(),
                              n * sizeof(double)),
                  0)
            << "n=" << n << " P=" << pool->parallelism() << " dps=" << dps;
      }
    }
  }
}

TEST(IdentityExample, TieSplitTieAllReconstructs) {
  auto data = shared_doubles(32);
  auto sp = std::make_unique<TieSpliterator<double>>(data);
  auto stream = stream_support::from_spliterator<double>(std::move(sp), true);
  const auto out = std::move(stream)
                       .with_min_chunk(2)
                       .collect(to_power_array_tie<double>());
  EXPECT_EQ(out.values(), *data);
}

TEST(IdentityExample, Power2CharacteristicIsVerifiable) {
  auto data = shared_doubles(16);
  ZipSpliterator<double> sp(data);
  EXPECT_TRUE(sp.has(pls::streams::kPower2));
  auto bad = shared_doubles(12);
  ZipSpliterator<double> sp_bad(bad);
  EXPECT_FALSE(sp_bad.has(pls::streams::kPower2));
}

// --- map through the collect template method ----------------------------

TEST(PowerMapCollector, AppliesFunctionTie) {
  auto data = shared_doubles(16);
  auto sp = std::make_unique<TieSpliterator<double>>(data);
  auto stream = stream_support::from_spliterator<double>(std::move(sp), true);
  const auto out =
      std::move(stream)
          .with_min_chunk(2)
          .collect(power_map_collector<double>(
              [](const double& d) { return d * d; }, DecompositionOp::kTie));
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) * static_cast<double>(i));
  }
}

TEST(PowerMapCollector, AppliesFunctionZip) {
  auto data = shared_doubles(32);
  auto sp = std::make_unique<ZipSpliterator<double>>(data);
  auto stream = stream_support::from_spliterator<double>(std::move(sp), true);
  const auto out = std::move(stream)
                       .with_min_chunk(1)
                       .collect(power_map_collector<double>(
                           [](const double& d) { return d + 0.5; },
                           DecompositionOp::kZip));
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], static_cast<double>(i) + 0.5);
  }
}

// --- the paper's central example: PolynomialValue -----------------------

class PolynomialStreamSweep
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PolynomialStreamSweep, SequentialMatchesHorner) {
  const std::size_t n = GetParam();
  std::vector<double> coeffs(n);
  for (std::size_t i = 0; i < n; ++i) {
    coeffs[i] = static_cast<double>(i % 7) - 3.0;
  }
  const double x = 0.95;
  const double expected = horner_descending(view_of(coeffs), x);
  auto shared = std::make_shared<const std::vector<double>>(coeffs);
  const double got = evaluate_polynomial_stream(shared, x, false);
  EXPECT_NEAR(got, expected, 1e-9 * static_cast<double>(n));
}

TEST_P(PolynomialStreamSweep, ParallelMatchesHorner) {
  const std::size_t n = GetParam();
  std::vector<double> coeffs(n);
  for (std::size_t i = 0; i < n; ++i) {
    coeffs[i] = static_cast<double>((i * 13) % 11) - 5.0;
  }
  const double x = 1.01;
  const double expected = horner_descending(view_of(coeffs), x);
  auto shared = std::make_shared<const std::vector<double>>(coeffs);
  ForkJoinPool pool(4);
  pls::streams::ExecutionConfig cfg;
  cfg.pool = &pool;
  const double got = evaluate_polynomial_stream(shared, x, true, cfg);
  // Relative tolerance: x > 1 makes high-degree values huge.
  EXPECT_NEAR(got, expected, std::abs(expected) * 1e-10 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PolynomialStreamSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024,
                                           4096));

TEST(PolynomialStream, SingleCoefficient) {
  auto shared =
      std::make_shared<const std::vector<double>>(std::vector<double>{7.5});
  EXPECT_DOUBLE_EQ(evaluate_polynomial_stream(shared, 123.0, false), 7.5);
}

TEST(PolynomialStream, NonPowerOfTwoRejected) {
  auto shared = std::make_shared<const std::vector<double>>(
      std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_THROW(evaluate_polynomial_stream(shared, 1.0, false),
               pls::precondition_error);
}

TEST(PolynomialStream, VariousChunkTargetsAgree) {
  std::vector<double> coeffs(256);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    coeffs[i] = std::sin(static_cast<double>(i));
  }
  const double x = 0.999;
  const double expected = horner_descending(view_of(coeffs), x);
  auto shared = std::make_shared<const std::vector<double>>(coeffs);
  ForkJoinPool pool(2);
  for (std::uint64_t chunk : {1u, 2u, 8u, 32u, 256u}) {
    pls::streams::ExecutionConfig cfg;
    cfg.pool = &pool;
    cfg.min_chunk = chunk;
    EXPECT_NEAR(evaluate_polynomial_stream(shared, x, true, cfg), expected,
                1e-8)
        << "chunk=" << chunk;
  }
}

TEST(PolynomialStream, ParallelMatchesScalarHornerAcrossPoolsAndKernels) {
  // The parallel zip evaluation (strided leaves gathered into the chunk
  // kernel) against the exact sequential fold, within the tolerance the
  // benchmark harness applies: 1e-9 * sum_i |a_i| |x|^(n-1-i).
  std::vector<std::unique_ptr<ForkJoinPool>> pools;
  for (unsigned p = 1; p <= 4; ++p) {
    pools.push_back(std::make_unique<ForkJoinPool>(p));
  }
  const double x = 0.9999993;
  for (unsigned lg = 0; lg <= 14; ++lg) {
    const std::size_t n = std::size_t{1} << lg;
    std::vector<double> c(n);
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      c[i] = std::sin(static_cast<double>(i) * 1.3) - 0.25;
      scale = scale * x + std::fabs(c[i]);
    }
    const double ref = pls::simd::horner_chunk_scalar(0.0, x, c.data(), n);
    auto shared = std::make_shared<const std::vector<double>>(std::move(c));
    for (auto& pool : pools) {
      for (const bool simd : {true, false}) {
        pls::streams::ExecutionConfig cfg;
        cfg.pool = pool.get();
        const double got =
            evaluate_polynomial_stream(shared, x, true, cfg, simd);
        EXPECT_LE(std::fabs(got - ref), 1e-9 * scale)
            << "n=" << n << " P=" << pool->parallelism() << " simd=" << simd;
      }
    }
  }
}

// --- equation 5 through DescendOpSpliterator ----------------------------

TEST(DescendOp, WalshHadamardSequentialMatchesReference) {
  std::vector<double> v{1.0, -2.0, 3.0, 0.5, -1.5, 2.0, 0.0, 4.0};
  const auto expected = wht_reference(v);
  const auto out = walsh_hadamard_stream(v, false);
  ASSERT_EQ(out.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(out[i], expected[i], 1e-9) << i;
  }
}

TEST(DescendOp, WalshHadamardParallelMatchesReference) {
  std::vector<double> v(64);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<double>((i * 37) % 19) - 9.0;
  }
  const auto expected = wht_reference(v);
  ForkJoinPool pool(4);
  pls::streams::ExecutionConfig cfg;
  cfg.pool = &pool;
  cfg.min_chunk = 4;
  const auto out = walsh_hadamard_stream(v, true, cfg);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(out[i], expected[i], 1e-9) << i;
  }
}

TEST(DescendOp, LeafCompletionViaForEachRemaining) {
  // min_chunk = size: no splits happen; for_each_remaining must complete
  // the whole transform by itself.
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const auto expected = wht_reference(v);
  pls::streams::ExecutionConfig cfg;
  cfg.min_chunk = 100;
  const auto out = walsh_hadamard_stream(v, true, cfg);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(out[i], expected[i], 1e-9) << i;
  }
}

TEST(DescendOp, NoSplitAfterTraversalBegan) {
  // Splitting after the leaf transform ran would re-apply the rewrite;
  // the spliterator must refuse.
  auto storage =
      std::make_shared<std::vector<double>>(std::vector<double>{1, 2, 3, 4});
  auto plus = [](double a, double b) { return a + b; };
  auto minus = [](double a, double b) { return a - b; };
  DescendOpSpliterator<double, decltype(plus), decltype(minus)> sp(
      storage, plus, minus);
  double first = 0;
  sp.try_advance([&](const double& v) { first = v; });
  EXPECT_EQ(sp.try_split(), nullptr);
  // And traversal still completes the correct transform.
  std::vector<double> rest;
  sp.for_each_remaining([&](const double& v) { rest.push_back(v); });
  const auto expected = wht_reference(std::vector<double>{1, 2, 3, 4});
  EXPECT_NEAR(first, expected[0], 1e-12);
  ASSERT_EQ(rest.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(rest[i], expected[i + 1], 1e-12);
  }
}

TEST(DescendOp, FastInPlaceMatchesReference) {
  std::vector<double> v(128);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::cos(static_cast<double>(i));
  }
  const auto expected = wht_reference(v);
  auto fast = v;
  wht_in_place(fast);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(fast[i], expected[i], 1e-9) << i;
  }
}

TEST(DescendOp, WhtIsSelfInverseUpToScale) {
  std::vector<double> v{3.0, 1.0, -2.0, 5.0};
  auto twice = v;
  wht_in_place(twice);
  wht_in_place(twice);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(twice[i], 4.0 * v[i], 1e-9);
  }
}

}  // namespace
