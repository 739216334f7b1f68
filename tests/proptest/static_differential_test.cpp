// Static-pipeline differential suite. Static stage stacks are types, so
// shapes cannot be picked at runtime the way the dynamic differential
// suite generates them; instead a canonical family of type-level stacks
// (every single op, ordered pairs, and deeper mixed chains including the
// fig4 4-map shape) is driven with randomized data, chunk sizes and
// execution modes, asserting
//
//   static == static.to_stream() == dynamic == plain-loop reference
//
// bit-identically for int64 stacks (and for the double-producing stack,
// whose per-element operations are evaluated in identical order on every
// route). Also here: SIMD-kernel differential properties — the polynomial
// collector's blocked Horner against its exact scalar fold (ULP-bounded),
// and the +-scan kernel against a generic-op scan (integer, bit-exact).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "forkjoin/pool.hpp"
#include "pls.hpp"
#include "proptest/prop.hpp"

namespace {

using namespace pls::proptest;
namespace streams = pls::streams;
using pls::stages::filter;
using pls::stages::map;
using pls::stages::peek;
using streams::Stream;

Config suite_config(int iterations) {
  Config cfg;
  cfg.iterations = iterations;
  return cfg;
}

struct Input {
  std::vector<std::int64_t> data;
  std::uint64_t chunk = 1;
};

Input gen_input(Rand& r) {
  Input in;
  const std::size_t n = static_cast<std::size_t>(r.below(130));
  in.data.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Bounded magnitude: the deepest stack multiplies by 3, so values
    // stay far from int64 overflow (which would be UB, not wraparound).
    in.data.push_back(static_cast<std::int64_t>(r.below(1u << 20)) -
                      (1 << 19));
  }
  in.chunk = r.chance(1, 8) ? in.data.size() + 1 : 1 + r.below(8);
  return in;
}

std::vector<Input> shrink_input(const Input& in) {
  std::vector<Input> out;
  if (in.data.empty()) return out;
  Input half = in;
  half.data.resize(in.data.size() / 2);
  out.push_back(std::move(half));
  Input tail = in;
  tail.data.erase(tail.data.begin());
  out.push_back(std::move(tail));
  return out;
}

Stream<std::int64_t> configured(const std::vector<std::int64_t>& data,
                                bool parallel, bool sized_sink,
                                std::uint64_t chunk,
                                pls::forkjoin::ForkJoinPool& pool) {
  auto s = Stream<std::int64_t>::of(data).with_sized_sink(sized_sink);
  if (parallel) {
    s = std::move(s).parallel().via(pool).with_min_chunk(chunk);
  }
  return s;
}

/// Plain-loop references for the canonical stacks: map and filter over a
/// vector, no streams code.
template <typename Fn>
auto ref_map(const std::vector<std::int64_t>& in, Fn fn) {
  std::vector<std::invoke_result_t<Fn&, std::int64_t>> out;
  for (const std::int64_t v : in) out.push_back(fn(v));
  return out;
}

template <typename Pred>
std::vector<std::int64_t> ref_filter(const std::vector<std::int64_t>& in,
                                     Pred pred) {
  std::vector<std::int64_t> out;
  for (const std::int64_t v : in) {
    if (pred(v)) out.push_back(v);
  }
  return out;
}

/// Drive one canonical stack through every mode x route combination.
/// `make_static` turns a configured Stream into a StaticPipeline (the
/// static route, and through to_stream() its dynamic dissolution);
/// `apply_dyn` applies the identical ops through the dynamic Stream API;
/// `expected` is the plain-loop reference output.
template <typename MakeStatic, typename ApplyDyn, typename Expected>
std::optional<std::string> check_stack(const char* label, const Input& in,
                                       pls::forkjoin::ForkJoinPool& pool,
                                       MakeStatic make_static,
                                       ApplyDyn apply_dyn,
                                       const Expected& expected) {
  for (const bool parallel : {false, true}) {
    for (const bool sized_sink : {false, true}) {
      if (!parallel && sized_sink) continue;  // same sequential route
      const auto mode = std::string(parallel ? "parallel" : "sequential") +
                        (sized_sink ? "+dps" : "");
      const auto stream = [&] {
        return configured(in.data, parallel, sized_sink, in.chunk, pool);
      };
      if (make_static(stream()).to_vector() != expected) {
        return std::string(label) + " static diverged (" + mode + ")";
      }
      if (make_static(stream()).to_stream().to_vector() != expected) {
        return std::string(label) + " static.to_stream() diverged (" + mode +
               ")";
      }
      if (apply_dyn(stream()).to_vector() != expected) {
        return std::string(label) + " dynamic diverged (" + mode + ")";
      }
    }
  }
  return std::nullopt;
}

/// The tentpole property: every canonical static stack agrees with its
/// dynamic twin and the plain-loop reference, in every execution mode,
/// bit for bit.
TEST(StaticDifferential, StaticEqualsDynamicEqualsLegacyInEveryMode) {
  pls::forkjoin::ForkJoinPool pool(2);
  const auto result = check(
      "static == dynamic == reference x {seq, fj, dps}", suite_config(60),
      gen_input, shrink_input, [&](const Input& in) -> PropStatus {
        const std::vector<std::int64_t>& d = in.data;
        std::optional<std::string> err;

        err = check_stack(
            "map", in, pool,
            [](auto s) {
              return std::move(s).stages(
                  map([](std::int64_t v) { return v * 3 - 7; }));
            },
            [](auto s) {
              return std::move(s).map(
                  [](std::int64_t v) { return v * 3 - 7; });
            },
            ref_map(d, [](std::int64_t v) { return v * 3 - 7; }));
        if (err) return PropStatus::fail(*err);

        err = check_stack(
            "filter", in, pool,
            [](auto s) {
              return std::move(s).stages(
                  filter([](std::int64_t v) { return v % 3 != 1; }));
            },
            [](auto s) {
              return std::move(s).filter(
                  [](std::int64_t v) { return v % 3 != 1; });
            },
            ref_filter(d, [](std::int64_t v) { return v % 3 != 1; }));
        if (err) return PropStatus::fail(*err);

        err = check_stack(
            "map.filter", in, pool,
            [](auto s) {
              return std::move(s).stages(
                  map([](std::int64_t v) { return v + 13; }),
                  filter([](std::int64_t v) { return (v & 3) != 0; }));
            },
            [](auto s) {
              return std::move(s)
                  .map([](std::int64_t v) { return v + 13; })
                  .filter([](std::int64_t v) { return (v & 3) != 0; });
            },
            ref_filter(ref_map(d, [](std::int64_t v) { return v + 13; }),
                       [](std::int64_t v) { return (v & 3) != 0; }));
        if (err) return PropStatus::fail(*err);

        err = check_stack(
            "filter.map", in, pool,
            [](auto s) {
              return std::move(s).stages(
                  filter([](std::int64_t v) { return v >= 0; }),
                  map([](std::int64_t v) { return v ^ 0x55; }));
            },
            [](auto s) {
              return std::move(s)
                  .filter([](std::int64_t v) { return v >= 0; })
                  .map([](std::int64_t v) { return v ^ 0x55; });
            },
            ref_map(ref_filter(d, [](std::int64_t v) { return v >= 0; }),
                    [](std::int64_t v) { return v ^ 0x55; }));
        if (err) return PropStatus::fail(*err);

        // The fig4 shape: four stacked maps.
        err = check_stack(
            "map4", in, pool,
            [](auto s) {
              return std::move(s).stages(
                  map([](std::int64_t v) { return v * 3; }),
                  map([](std::int64_t v) { return v + 11; }),
                  map([](std::int64_t v) { return v ^ 0x2a; }),
                  map([](std::int64_t v) { return v - 9; }));
            },
            [](auto s) {
              return std::move(s)
                  .map([](std::int64_t v) { return v * 3; })
                  .map([](std::int64_t v) { return v + 11; })
                  .map([](std::int64_t v) { return v ^ 0x2a; })
                  .map([](std::int64_t v) { return v - 9; });
            },
            ref_map(d, [](std::int64_t v) {
              return ((v * 3 + 11) ^ 0x2a) - 9;
            }));
        if (err) return PropStatus::fail(*err);

        err = check_stack(
            "map.peek.filter.map", in, pool,
            [](auto s) {
              return std::move(s).stages(
                  map([](std::int64_t v) { return v - 1; }),
                  peek([](const std::int64_t&) {}),
                  filter([](std::int64_t v) { return v % 5 != 2; }),
                  map([](std::int64_t v) { return v * 2 + 1; }));
            },
            [](auto s) {
              return std::move(s)
                  .map([](std::int64_t v) { return v - 1; })
                  .peek([](const std::int64_t&) {})
                  .filter([](std::int64_t v) { return v % 5 != 2; })
                  .map([](std::int64_t v) { return v * 2 + 1; });
            },
            ref_map(
                ref_filter(ref_map(d, [](std::int64_t v) { return v - 1; }),
                           [](std::int64_t v) { return v % 5 != 2; }),
                [](std::int64_t v) { return v * 2 + 1; }));
        if (err) return PropStatus::fail(*err);

        // Type-changing chain: int64 -> double. Per-element operations are
        // identical in order on every route, so doubles compare exactly.
        err = check_stack(
            "map->double", in, pool,
            [](auto s) {
              return std::move(s).stages(
                  map([](std::int64_t v) { return v * 2 + 1; }),
                  map([](std::int64_t v) {
                    return static_cast<double>(v) * 0.5;
                  }));
            },
            [](auto s) {
              return std::move(s)
                  .map([](std::int64_t v) { return v * 2 + 1; })
                  .map([](std::int64_t v) {
                    return static_cast<double>(v) * 0.5;
                  });
            },
            ref_map(d, [](std::int64_t v) {
              return static_cast<double>(v * 2 + 1) * 0.5;
            }));
        if (err) return PropStatus::fail(*err);

        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// Observer parity: a peek inside the static stack sees exactly the same
/// elements (count and sum) as the dynamic peek, sequentially.
TEST(StaticDifferential, PeekObservationParity) {
  pls::forkjoin::ForkJoinPool pool(2);
  const auto result = check(
      "static peek observes == dynamic peek observes", suite_config(60),
      gen_input, shrink_input, [&](const Input& in) -> PropStatus {
        std::int64_t static_count = 0, static_sum = 0;
        std::int64_t dyn_count = 0, dyn_sum = 0;
        (void)configured(in.data, false, false, in.chunk, pool)
            .stages(map([](std::int64_t v) { return v + 2; }),
                    peek([&](const std::int64_t& v) {
                      ++static_count;
                      static_sum += v;
                    }),
                    filter([](std::int64_t v) { return v % 2 == 0; }))
            .to_vector();
        (void)configured(in.data, false, false, in.chunk, pool)
            .map([](std::int64_t v) { return v + 2; })
            .peek([&](const std::int64_t& v) {
              ++dyn_count;
              dyn_sum += v;
            })
            .filter([](std::int64_t v) { return v % 2 == 0; })
            .to_vector();
        if (static_count != dyn_count || static_sum != dyn_sum) {
          return PropStatus::fail(
              "static peek saw " + std::to_string(static_count) +
              " elements, dynamic saw " + std::to_string(dyn_count));
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// Terminals beyond to_vector: count and reduce agree between the static
/// and dynamic routes in both execution modes.
TEST(StaticDifferential, CountAndReduceAgree) {
  pls::forkjoin::ForkJoinPool pool(2);
  const auto result = check(
      "static count/reduce == dynamic count/reduce", suite_config(60),
      gen_input, shrink_input, [&](const Input& in) -> PropStatus {
        for (const bool parallel : {false, true}) {
          const auto static_count =
              configured(in.data, parallel, false, in.chunk, pool)
                  .stages(filter([](std::int64_t v) { return v % 7 != 3; }))
                  .count();
          const auto dyn_count =
              configured(in.data, parallel, false, in.chunk, pool)
                  .filter([](std::int64_t v) { return v % 7 != 3; })
                  .count();
          if (static_count != dyn_count) {
            return PropStatus::fail("count diverged");
          }
          const auto xor_op = [](std::int64_t a, std::int64_t b) {
            return a ^ b;
          };
          const auto static_xor =
              configured(in.data, parallel, false, in.chunk, pool)
                  .stages(map([](std::int64_t v) { return v * 5 + 1; }))
                  .reduce(std::int64_t{0}, xor_op);
          const auto dyn_xor =
              configured(in.data, parallel, false, in.chunk, pool)
                  .map([](std::int64_t v) { return v * 5 + 1; })
                  .reduce(std::int64_t{0}, xor_op);
          if (static_xor != dyn_xor) {
            return PropStatus::fail("xor-reduce diverged");
          }
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

// ---- SIMD kernel differentials ---------------------------------------

/// The polynomial collector's blocked Horner kernel against its exact
/// scalar fold, through the full stream evaluation (sequential and
/// parallel): ULP-bounded relative divergence.
TEST(StaticDifferential, PolynomialSimdKernelUlpBounded) {
  pls::forkjoin::ForkJoinPool pool(2);
  const auto result = check(
      "horner simd stream == scalar stream (ULP-bounded)", suite_config(40),
      [](Rand& r) {
        std::size_t log2n = 2 + r.below(9);  // 4 .. 2048 coefficients
        std::vector<double> coeffs(std::size_t{1} << log2n);
        for (auto& c : coeffs) {
          c = static_cast<double>(static_cast<std::int64_t>(r.below(2000)) -
                                  1000) /
              1000.0;
        }
        return coeffs;
      },
      [](const std::vector<double>& c) {
        std::vector<std::vector<double>> out;
        if (c.size() > 4) out.push_back({c.begin(), c.begin() + c.size() / 2});
        return out;
      },
      [&](const std::vector<double>& coeffs) -> PropStatus {
        const double x = 0.9999993;
        auto shared =
            std::make_shared<const std::vector<double>>(coeffs);
        streams::ExecutionConfig cfg;
        cfg.pool = &pool;
        for (const bool parallel : {false, true}) {
          const double simd = pls::powerlist::evaluate_polynomial_stream(
              shared, x, parallel, cfg, /*simd_kernels=*/true);
          const double scalar = pls::powerlist::evaluate_polynomial_stream(
              shared, x, parallel, cfg, /*simd_kernels=*/false);
          const double tol =
              1e-9 * std::max(1.0, std::abs(scalar)) *
              static_cast<double>(coeffs.size());
          if (std::abs(simd - scalar) > tol) {
            return PropStatus::fail(
                "simd=" + std::to_string(simd) +
                " scalar=" + std::to_string(scalar) +
                " n=" + std::to_string(coeffs.size()));
          }
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// scan_sequential's +-kernel route against the generic-op route
/// (spelled with a lambda the kernel dispatch cannot recognise):
/// bit-identical on integers.
TEST(StaticDifferential, ScanKernelMatchesGenericOp) {
  const auto result = check(
      "scan kernel == generic scan (int64)", suite_config(80),
      [](Rand& r) {
        // PowerLists are power-of-two length by definition.
        std::vector<std::int64_t> v(std::size_t{1} << r.below(9));
        for (auto& x : v) {
          x = static_cast<std::int64_t>(r.below(1u << 30)) - (1 << 29);
        }
        return v;
      },
      [](const std::vector<std::int64_t>& v) {
        std::vector<std::vector<std::int64_t>> out;
        if (v.size() > 1) out.push_back({v.begin(), v.begin() + v.size() / 2});
        return out;
      },
      [](const std::vector<std::int64_t>& v) -> PropStatus {
        const auto view =
            pls::powerlist::PowerListView<const std::int64_t>::over(v);
        const auto kernel =
            pls::powerlist::scan_sequential(view, pls::simd::Plus{});
        const auto generic = pls::powerlist::scan_sequential(
            view, [](std::int64_t a, std::int64_t b) { return a + b; });
        if (kernel != generic) {
          return PropStatus::fail("kernel scan diverged from generic scan");
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

}  // namespace
