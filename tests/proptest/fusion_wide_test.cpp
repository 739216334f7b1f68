// Wide-admission differential suite: short-circuit match/find terminals
// over pipelines generated from every op — map variants, peek, filter,
// limit, take_while, flat_map, distinct, sorted, drop_while — over every
// source kind. Three properties:
//
//   1. any/all/none_match and find_first agree with the answers computed
//      from the reference interpreter, sequentially and in parallel.
//   2. Consumption depth: a short-circuit terminal pulls exactly as many
//      source elements as reference_source_pulls predicts, observed
//      through a counting peek between the source and the generated ops.
//   3. Routing: match terminals always run on the fused element loop
//      (fused_leaves > 0).
//
// Properties 1 and 2 also run over gen_staged_pipeline shapes — stages
// inside concat parts, under sorted, around drop_while — with the
// counting peek on each raw source inside the concat parts.
//
// Failures replay with PLS_TEST_SEED, like the rest of the proptest
// suites.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "observe/counters.hpp"
#include "proptest/pipelines.hpp"
#include "proptest/prop.hpp"
#include "streams/stream.hpp"

namespace {

using namespace pls::proptest;
namespace streams = pls::streams;

Config suite_config(int iterations) {
  Config cfg;
  cfg.iterations = iterations;
  return cfg;
}

/// Match predicate shared by all four terminals: sparse enough that
/// short-circuiting usually stops mid-source, dense enough to hit.
struct MatchPredFn {
  std::uint64_t param;
  bool operator()(const std::int64_t& v) const {
    return ((static_cast<std::uint64_t>(v) ^ param) % 5) == 0;
  }
};

struct ShapeAndParam {
  PipelineShape shape;
  std::uint64_t param;
};

ShapeAndParam gen_case(Rand& r) {
  return ShapeAndParam{gen_pipeline(r, 9), r.bits()};
}

ShapeAndParam gen_staged_case(Rand& r) {
  return ShapeAndParam{gen_staged_pipeline(r, 9), r.bits()};
}

std::vector<ShapeAndParam> shrink_case(const ShapeAndParam& c) {
  std::vector<ShapeAndParam> out;
  for (auto& smaller : shrink_pipeline(c.shape)) {
    out.push_back(ShapeAndParam{std::move(smaller), c.param});
  }
  if (c.param != 0) out.push_back(ShapeAndParam{c.shape, 0});
  return out;
}

/// All four short-circuit terminals agree with the reference interpreter
/// on the fused element loop, sequentially and in parallel.
PropStatus match_and_find_agree(const ShapeAndParam& c) {
  const MatchPredFn pred{c.param};
  const std::vector<std::int64_t> expected = reference_result(c.shape);
  bool ref_any = false, ref_all = true;
  for (const std::int64_t v : expected) {
    if (pred(v)) ref_any = true;
    else ref_all = false;
  }
  for (const bool parallel : {false, true}) {
    const auto stream_for = [&]() {
      auto s = build_stream(c.shape);
      if (parallel) s = std::move(s).parallel();
      return s;
    };
    const std::string mode = parallel ? "parallel" : "sequential";
    if (stream_for().any_match(pred) != ref_any) {
      return PropStatus::fail("any_match diverged (" + mode + "): " +
                              c.shape.debug_string());
    }
    if (stream_for().all_match(pred) != ref_all) {
      return PropStatus::fail("all_match diverged (" + mode + "): " +
                              c.shape.debug_string());
    }
    if (stream_for().none_match(pred) != !ref_any) {
      return PropStatus::fail("none_match diverged (" + mode + "): " +
                              c.shape.debug_string());
    }
    const std::optional<std::int64_t> first = stream_for().find_first();
    if (first.has_value() == expected.empty() ||
        (first.has_value() && *first != expected.front())) {
      return PropStatus::fail("find_first diverged (" + mode + "): " +
                              c.shape.debug_string());
    }
  }
  return PropStatus::pass();
}

TEST(FusionWide, MatchAndFindAgreeFusedLegacyReference) {
  PLS_EXPECT_PROP(check("match/find == reference", suite_config(150),
                        gen_case, shrink_case, match_and_find_agree));
}

TEST(FusionWide, StagedPartsMatchAndFindAgreeWithReference) {
  PLS_EXPECT_PROP(check("staged match/find == reference", suite_config(150),
                        gen_staged_case, shrink_case, match_and_find_agree));
}

/// Consumption depth: short-circuit terminals pull exactly as many source
/// elements as the reference streaming model — the cancellable
/// element-mode driver checks cancellation between source elements. With
/// `in_parts` the counting peek sits on each raw source, inside concat
/// parts; otherwise between the source and the generated ops.
PropStatus short_circuit_depth_matches(const ShapeAndParam& c,
                                       bool in_parts) {
  const MatchPredFn pred{c.param};
  for (const bool use_find : {false, true}) {
    std::uint64_t pulls = 0;
    const auto count = [&pulls](const std::int64_t&) { ++pulls; };
    auto probed = in_parts ? build_source(c.shape, count)
                           : build_source(c.shape).peek(count);
    auto stream = apply_ops(std::move(probed), c.shape);
    std::uint64_t expected = 0;
    if (use_find) {
      (void)std::move(stream).find_first();
      expected = reference_source_pulls(
          c.shape, [](std::int64_t) { return true; });
    } else {
      (void)std::move(stream).any_match(pred);
      expected = reference_source_pulls(c.shape, pred);
    }
    if (pulls != expected) {
      return PropStatus::fail(
          std::string(use_find ? "find_first" : "any_match") +
          " consumed " + std::to_string(pulls) +
          " source elements, reference consumes " +
          std::to_string(expected) + ": " + c.shape.debug_string());
    }
  }
  return PropStatus::pass();
}

TEST(FusionWide, ShortCircuitConsumptionDepthMatchesLegacy) {
  PLS_EXPECT_PROP(check(
      "match/find source consumption == reference pulls", suite_config(150),
      gen_case, shrink_case,
      [](const ShapeAndParam& c) {
        return short_circuit_depth_matches(c, false);
      }));
}

TEST(FusionWide, StagedPartsShortCircuitDepthMatchesReference) {
  PLS_EXPECT_PROP(check(
      "staged match/find source consumption == reference pulls",
      suite_config(150), gen_staged_case, shrink_case,
      [](const ShapeAndParam& c) {
        return short_circuit_depth_matches(c, true);
      }));
}

/// Routing: every generated shape fuses, so a match terminal must run on
/// the fused element loop.
TEST(FusionWide, MatchTerminalsRouteThroughFusedLeaves) {
  if (!pls::observe::kEnabled) {
    GTEST_SKIP() << "observability compiled out";
  }
  const auto result = check(
      "match terminal fused_leaves > 0", suite_config(80), gen_case,
      shrink_case, [](const ShapeAndParam& c) -> PropStatus {
        const MatchPredFn pred{c.param};
        const auto before = pls::observe::aggregate_counters();
        (void)build_stream(c.shape).any_match(pred);
        const auto delta = pls::observe::aggregate_counters() - before;
        if (delta.fused_leaves == 0) {
          return PropStatus::fail("match terminal ran no fused leaf: " +
                                  c.shape.debug_string());
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

}  // namespace
