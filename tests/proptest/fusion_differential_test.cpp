// Fusion differential suite: generated pipelines over every op — map
// variants, peek, filter, limit, take_while, flat_map, distinct, sorted,
// drop_while — over Array/Range/Generate/Concat/Iterate sources must
// collect exactly the vectors the plain-loop reference interpreter
// (reference_result) computes, across the sequential fold, the fork-join
// supplier/combiner reduction, and the destination-passing collect. The
// short-circuit consumption depth, observed through a counting peek
// injected below the generated ops, must equal reference_source_pulls.
// The tentpole property drives each generated shape through 3 modes over
// >= 200 iterations, plus routing and counter properties: every leaf runs
// fused, and reports the element count the reference predicts. A second
// generator (gen_staged_pipeline) puts stages where a plain chain never
// does — inside concat parts, under sorted, around drop_while — and the
// same properties hold there, with the consumption depth observed by a
// counting peek on the raw source inside each concat part. (Match/find
// terminals and their consumption depth live in fusion_wide_test.cpp.)
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "forkjoin/pool.hpp"
#include "observe/counters.hpp"
#include "proptest/pipelines.hpp"
#include "proptest/prop.hpp"
#include "streams/fusion.hpp"
#include "streams/stream.hpp"

namespace {

using namespace pls::proptest;
namespace streams = pls::streams;

Config suite_config(int iterations) {
  Config cfg;
  cfg.iterations = iterations;
  return cfg;
}

std::uint64_t chunk_for(const PipelineShape& s, Rand& r) {
  if (r.chance(1, 8)) return s.size + 1;
  return 1 + r.below(8);
}

using ShapeGen = PipelineShape (*)(Rand&, unsigned);

/// The fused evaluator equals the reference interpreter, bit for bit, in
/// every execution mode, over shapes drawn from `gen`.
void check_every_mode(ShapeGen gen, int iterations) {
  pls::forkjoin::ForkJoinPool pool(2);
  const auto result = check(
      "fused == reference x {seq, fj, dps}", suite_config(iterations),
      [gen](Rand& r) {
        PipelineShape s = gen(r, 9);
        return std::make_pair(s, r.bits());
      },
      [](const std::pair<PipelineShape, std::uint64_t>& c) {
        std::vector<std::pair<PipelineShape, std::uint64_t>> out;
        for (auto& smaller : shrink_pipeline(c.first)) {
          out.emplace_back(std::move(smaller), c.second);
        }
        return out;
      },
      [&](const std::pair<PipelineShape, std::uint64_t>& c) -> PropStatus {
        const PipelineShape& s = c.first;
        Rand chunk_rand(c.second);
        const std::uint64_t chunk = chunk_for(s, chunk_rand);
        const std::vector<std::int64_t> expected = reference_result(s);
        for (const bool parallel : {false, true}) {
          for (const bool sized_sink : {false, true}) {
            if (!parallel && sized_sink) continue;  // same sequential route
            auto stream = build_stream(s).with_sized_sink(sized_sink);
            if (parallel) {
              stream = std::move(stream).parallel().via(pool).with_min_chunk(
                  chunk);
            }
            if (std::move(stream).to_vector() != expected) {
              return PropStatus::fail(
                  std::string(parallel ? "parallel" : "sequential") +
                  (sized_sink ? "+dps" : "") +
                  " route diverged from reference (min_chunk=" +
                  std::to_string(chunk) + "): " + s.debug_string());
            }
          }
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// The tentpole property over plain generated chains.
TEST(FusionDifferential, FusedEqualsLegacyInEveryMode) {
  check_every_mode(gen_pipeline, 200);
}

/// The same property with stages inside concat parts, under sorted and
/// around drop_while.
TEST(FusionDifferential, StagedPartsEqualReferenceInEveryMode) {
  check_every_mode(gen_staged_pipeline, 200);
}

/// Short-circuit depth: a counting peek placed *before* the generated ops
/// sees every element the evaluator pulls out of the source. For
/// cancelling chains (limit/take_while) the cancellable driver must pull
/// exactly as many as the reference streaming model predicts.
TEST(FusionDifferential, CancellationConsumptionDepthMatchesLegacy) {
  const auto result = check(
      "fused source consumption == reference pulls", suite_config(200),
      [](Rand& r) { return gen_pipeline(r, 9); },
      [](const PipelineShape& s) { return shrink_pipeline(s); },
      [](const PipelineShape& s) -> PropStatus {
        std::uint64_t pulls = 0;
        auto probed =
            build_source(s).peek([&pulls](const std::int64_t&) { ++pulls; });
        if (apply_ops(std::move(probed), s).to_vector() !=
            reference_result(s)) {
          return PropStatus::fail("probed result diverged from reference: " +
                                  s.debug_string());
        }
        const std::uint64_t expected =
            reference_source_pulls(s, [](std::int64_t) { return false; });
        if (pulls != expected) {
          return PropStatus::fail(
              "pipeline consumed " + std::to_string(pulls) +
              " source elements, reference consumes " +
              std::to_string(expected) + ": " + s.debug_string());
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// Routing property: fusion is total, so every leaf of every generated
/// shape — concat, iterate and drop_while sources included — must run as
/// a fused sink chain, observable through the fused_leaves counter.
TEST(FusionDifferential, FusionAdmissionMatchesPredicate) {
  if (!pls::observe::kEnabled) {
    GTEST_SKIP() << "observability compiled out";
  }
  const auto result = check(
      "fused_leaves == leaf_chunks == 1 (sequential)", suite_config(100),
      [](Rand& r) { return gen_pipeline(r, 8); },
      [](const PipelineShape& s) { return shrink_pipeline(s); },
      [](const PipelineShape& s) -> PropStatus {
        const auto before = pls::observe::aggregate_counters();
        (void)build_stream(s).to_vector();
        const auto delta = pls::observe::aggregate_counters() - before;
        if (delta.leaf_chunks != 1 || delta.fused_leaves != 1) {
          return PropStatus::fail(
              "sequential run had " + std::to_string(delta.leaf_chunks) +
              " leaves, " + std::to_string(delta.fused_leaves) +
              " fused: " + s.debug_string());
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// Counter parity: fused leaves must feed elements_accumulated the
/// pipeline's output size when its stages keep it exact, and 0 otherwise
/// — the total expected_leaf_elements derives from the shape alone.
TEST(FusionDifferential, FusedLeafElementTotalsMatchLegacy) {
  if (!pls::observe::kEnabled) {
    GTEST_SKIP() << "observability compiled out";
  }
  const auto result = check(
      "elements_accumulated == expected_leaf_elements", suite_config(80),
      [](Rand& r) { return gen_pipeline(r, 8); },
      [](const PipelineShape& s) { return shrink_pipeline(s); },
      [](const PipelineShape& s) -> PropStatus {
        const auto before = pls::observe::aggregate_counters();
        (void)build_stream(s).to_vector();
        const auto delta = pls::observe::aggregate_counters() - before;
        const std::uint64_t expected = expected_leaf_elements(s);
        if (delta.elements_accumulated != expected) {
          return PropStatus::fail(
              "leaf reported " + std::to_string(delta.elements_accumulated) +
              " elements, expected " + std::to_string(expected) + ": " +
              s.debug_string());
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// Terminal coverage beyond to_vector: count and reduce agree with the
/// reference for every generated shape.
TEST(FusionDifferential, CountAndReduceAgreeFusedVsLegacy) {
  const auto result = check(
      "count/reduce == reference", suite_config(100),
      [](Rand& r) { return gen_pipeline(r, 9); },
      [](const PipelineShape& s) { return shrink_pipeline(s); },
      [](const PipelineShape& s) -> PropStatus {
        const std::vector<std::int64_t> expected = reference_result(s);
        if (build_stream(s).count() != expected.size()) {
          return PropStatus::fail("count diverged from reference: " +
                                  s.debug_string());
        }
        std::int64_t expected_xor = 0;
        for (const std::int64_t v : expected) expected_xor ^= v;
        const std::int64_t got_xor = build_stream(s).reduce(
            std::int64_t{0},
            [](std::int64_t a, std::int64_t b) { return a ^ b; });
        if (got_xor != expected_xor) {
          return PropStatus::fail("xor-reduce diverged from reference: " +
                                  s.debug_string());
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// Consumption depth and counters with staged parts: a counting peek on
/// each raw source — inside each concat part, below its part ops — sees
/// exactly the pulls the reference streaming model predicts; the
/// sequential run is one fused leaf reporting expected_leaf_elements.
TEST(FusionDifferential, StagedPartsConsumptionDepthAndCountersMatch) {
  const auto result = check(
      "staged source consumption == reference pulls", suite_config(200),
      [](Rand& r) { return gen_staged_pipeline(r, 9); },
      [](const PipelineShape& s) { return shrink_pipeline(s); },
      [](const PipelineShape& s) -> PropStatus {
        std::uint64_t pulls = 0;
        const auto before = pls::observe::aggregate_counters();
        const auto out =
            apply_ops(build_source(s, [&pulls](const std::int64_t&) {
                        ++pulls;
                      }),
                      s)
                .to_vector();
        const auto delta = pls::observe::aggregate_counters() - before;
        if (out != reference_result(s)) {
          return PropStatus::fail("probed result diverged from reference: " +
                                  s.debug_string());
        }
        const std::uint64_t expected =
            reference_source_pulls(s, [](std::int64_t) { return false; });
        if (pulls != expected) {
          return PropStatus::fail(
              "pipeline consumed " + std::to_string(pulls) +
              " source elements, reference consumes " +
              std::to_string(expected) + ": " + s.debug_string());
        }
        if (pls::observe::kEnabled &&
            (delta.leaf_chunks != 1 || delta.fused_leaves != 1 ||
             delta.elements_accumulated != expected_leaf_elements(s))) {
          return PropStatus::fail(
              "sequential run had " + std::to_string(delta.leaf_chunks) +
              " leaves, " + std::to_string(delta.fused_leaves) +
              " fused, " + std::to_string(delta.elements_accumulated) +
              " elements (expected " +
              std::to_string(expected_leaf_elements(s)) +
              "): " + s.debug_string());
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

}  // namespace
