// Spliterator contract law suite: every spliterator type in
// src/streams/spliterators.hpp (Array, Range, Generate, Concat),
// src/powerlist/spliterators.hpp (SpliteratorPower2, Tie, Zip) and
// src/plist/multiway_spliterator.hpp (NTie, NZip) — plus the pull view
// of map/peek/filter pipelines (streams/fusion.hpp, PipelineSpliterator)
// — checked against the generic
// contract checker over generated sizes, values, and split decisions.
// NTie and NZip also face the n-way split law (try_split_n).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "plist/multiway_spliterator.hpp"
#include "powerlist/spliterators.hpp"
#include "proptest/gen.hpp"
#include "proptest/laws.hpp"
#include "proptest/prop.hpp"
#include "streams/spliterators.hpp"
#include "streams/stream.hpp"

namespace {

using namespace pls::proptest;
namespace streams = pls::streams;
namespace powerlist = pls::powerlist;
namespace plist = pls::plist;

using SpInt = std::unique_ptr<streams::Spliterator<std::int64_t>>;
using Shared = std::shared_ptr<const std::vector<std::int64_t>>;

Config suite_config() {
  Config cfg;
  cfg.iterations = 60;
  return cfg;
}

/// A generated backing vector plus the Rand stream for split decisions.
struct Case {
  std::vector<std::int64_t> data;
  std::uint64_t split_seed;

  std::string debug_string() const {
    return "data=" + describe(data) +
           " split_seed=" + std::to_string(split_seed);
  }
};

Case gen_case(Rand& r, std::uint64_t max_size, bool pow2_only) {
  Case c;
  const std::uint64_t n = pow2_only
                              ? gen_pow2_size(r, 0, 8)
                              : gen_size(r, 0, max_size);
  c.data = gen_values(r, n, -1000, 1000);
  c.split_seed = r.bits();
  return c;
}

std::vector<Case> shrink_case(const Case& c) {
  std::vector<Case> out;
  for (auto& smaller : shrink_vector(c.data)) {
    out.push_back(Case{std::move(smaller), c.split_seed});
  }
  return out;
}

/// Run the law checker for a factory family over generated cases.
template <typename MakeFactory>
void run_suite(const char* name, bool pow2_only, MakeFactory make_factory,
               SplitOrder order = SplitOrder::kPrefix) {
  const auto result = check(
      name, suite_config(),
      [&](Rand& r) { return gen_case(r, 200, pow2_only); },
      [](const Case& c) { return shrink_case(c); },
      [&](const Case& c) {
        Rand split_rand(c.split_seed);
        auto factory = make_factory(c);
        return check_spliterator_laws<std::int64_t>(factory, split_rand,
                                                    order);
      });
  PLS_EXPECT_PROP(result);
}

TEST(SpliteratorLaws, Array) {
  run_suite("ArraySpliterator laws", false, [](const Case& c) {
    auto shared = std::make_shared<const std::vector<std::int64_t>>(c.data);
    return [shared]() -> SpInt {
      return std::make_unique<streams::ArraySpliterator<std::int64_t>>(
          shared);
    };
  });
}

TEST(SpliteratorLaws, Range) {
  run_suite("RangeSpliterator laws", false, [](const Case& c) {
    // Reinterpret the case as a range: begin from the split seed
    // (including negatives), length from the data.
    const std::int64_t begin =
        static_cast<std::int64_t>(c.split_seed % 4001) - 2000;
    const std::int64_t end = begin + static_cast<std::int64_t>(c.data.size());
    return [begin, end]() -> SpInt {
      return std::make_unique<streams::RangeSpliterator<std::int64_t>>(begin,
                                                                       end);
    };
  });
}

TEST(SpliteratorLaws, Generate) {
  struct Fn {
    std::uint64_t seed;
    std::int64_t operator()(std::uint64_t i) const {
      return value_at(seed, i);
    }
  };
  run_suite("GenerateSpliterator laws", false, [](const Case& c) {
    auto fn = std::make_shared<const Fn>(Fn{c.split_seed});
    const std::uint64_t n = c.data.size();
    return [fn, n]() -> SpInt {
      return std::make_unique<
          streams::GenerateSpliterator<std::int64_t, Fn>>(fn, 0, n);
    };
  });
}

TEST(SpliteratorLaws, Concat) {
  run_suite("ConcatSpliterator laws", false, [](const Case& c) {
    auto shared = std::make_shared<const std::vector<std::int64_t>>(c.data);
    const std::size_t mid = c.data.size() / 3;
    return [shared, mid]() -> SpInt {
      auto first = std::make_unique<streams::ArraySpliterator<std::int64_t>>(
          shared, 0, mid);
      auto second = std::make_unique<streams::ArraySpliterator<std::int64_t>>(
          shared, mid, shared->size());
      return std::make_unique<streams::ConcatSpliterator<std::int64_t>>(
          std::move(first), std::move(second));
    };
  });
}

TEST(SpliteratorLaws, SpliteratorPower2Strided) {
  run_suite("SpliteratorPower2 (strided) laws", true, [](const Case& c) {
    // View the data at a stride that still fits: every other element.
    auto shared = std::make_shared<const std::vector<std::int64_t>>(c.data);
    const std::size_t count = c.data.size() / 2;
    return [shared, count]() -> SpInt {
      return std::make_unique<powerlist::TieSpliterator<std::int64_t>>(
          shared, 0, 2, count);
    };
  });
}

TEST(SpliteratorLaws, Tie) {
  run_suite("TieSpliterator laws", true, [](const Case& c) {
    auto shared = std::make_shared<const std::vector<std::int64_t>>(c.data);
    return [shared]() -> SpInt {
      return std::make_unique<powerlist::TieSpliterator<std::int64_t>>(
          shared);
    };
  });
}

TEST(SpliteratorLaws, Zip) {
  // Zip splits partition by parity, so leaf concatenation is a bit-reversal
  // permutation of encounter order; order is carried by the output windows
  // (the placement law), not by prefix concatenation.
  run_suite(
      "ZipSpliterator laws", true,
      [](const Case& c) {
        auto shared =
            std::make_shared<const std::vector<std::int64_t>>(c.data);
        return [shared]() -> SpInt {
          return std::make_unique<powerlist::ZipSpliterator<std::int64_t>>(
              shared);
        };
      },
      SplitOrder::kInterleaved);
}

TEST(SpliteratorLaws, NTie) {
  run_suite("NTieSpliterator laws", false, [](const Case& c) {
    auto shared = std::make_shared<const std::vector<std::int64_t>>(c.data);
    return [shared]() -> SpInt {
      return std::make_unique<plist::NTieSpliterator<std::int64_t>>(shared);
    };
  });
}

TEST(SpliteratorLaws, NZip) {
  run_suite(
      "NZipSpliterator laws", false,
      [](const Case& c) {
        auto shared =
            std::make_shared<const std::vector<std::int64_t>>(c.data);
        return [shared]() -> SpInt {
          return std::make_unique<plist::NZipSpliterator<std::int64_t>>(
              shared);
        };
      },
      SplitOrder::kInterleaved);
}

/// The n-way split law (try_split_n at arities 2..8) over sizes
/// 2^a * 3^b * 5^c up to 2^6 * 3^3 * 5, so most arities divide some level
/// of the split tree.
template <typename Make>
void run_split_n_suite(const char* name, Make make, SplitOrder order) {
  const auto result = check(
      name, suite_config(),
      [](Rand& r) {
        std::uint64_t n = std::uint64_t{1} << r.below(7);
        for (std::uint64_t b = r.below(4); b > 0; --b) n *= 3;
        if (r.coin()) n *= 5;
        Case c;
        c.data = gen_values(r, n, -1000, 1000);
        c.split_seed = r.bits();
        return c;
      },
      [](const Case& c) { return shrink_case(c); },
      [&](const Case& c) {
        Rand split_rand(c.split_seed);
        auto shared = std::make_shared<const std::vector<std::int64_t>>(c.data);
        return check_spliterator_laws<std::int64_t>(
            [&]() -> SpInt { return make(shared); }, split_rand, order, 8);
      });
  PLS_EXPECT_PROP(result);
}

TEST(SpliteratorLaws, NTieSplitN) {
  run_split_n_suite(
      "NTieSpliterator n-way split laws",
      [](const Shared& shared) -> SpInt {
        return std::make_unique<plist::NTieSpliterator<std::int64_t>>(shared);
      },
      SplitOrder::kPrefix);
}

TEST(SpliteratorLaws, NZipSplitN) {
  run_split_n_suite(
      "NZipSpliterator n-way split laws",
      [](const Shared& shared) -> SpInt {
        return std::make_unique<plist::NZipSpliterator<std::int64_t>>(shared);
      },
      SplitOrder::kInterleaved);
}

TEST(SpliteratorLaws, MapWrapper) {
  struct Twice {
    std::int64_t operator()(const std::int64_t& v) const {
      return static_cast<std::int64_t>(static_cast<std::uint64_t>(v) * 2);
    }
  };
  run_suite("map pipeline spliterator laws", false, [](const Case& c) {
    auto shared = std::make_shared<const std::vector<std::int64_t>>(c.data);
    return [shared]() -> SpInt {
      return streams::Stream<std::int64_t>::of_shared(shared)
          .map(Twice{})
          .into_spliterator();
    };
  });
}

TEST(SpliteratorLaws, FilterWrapper) {
  struct Odd {
    bool operator()(const std::int64_t& v) const { return (v & 1) != 0; }
  };
  run_suite("filter pipeline spliterator laws", false, [](const Case& c) {
    auto shared = std::make_shared<const std::vector<std::int64_t>>(c.data);
    return [shared]() -> SpInt {
      return streams::Stream<std::int64_t>::of_shared(shared)
          .filter(Odd{})
          .into_spliterator();
    };
  });
}

TEST(SpliteratorLaws, PeekWrapper) {
  struct Noop {
    void operator()(const std::int64_t&) const {}
  };
  run_suite("peek pipeline spliterator laws", false, [](const Case& c) {
    auto shared = std::make_shared<const std::vector<std::int64_t>>(c.data);
    return [shared]() -> SpInt {
      return streams::Stream<std::int64_t>::of_shared(shared)
          .peek(Noop{})
          .into_spliterator();
    };
  });
}

}  // namespace
