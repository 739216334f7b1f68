// Planner ≡ shape predicates: the ExecutionPlan recorded by the unified
// evaluate() entry must coincide with what the generated shape predicts —
// the stripped stage count and source sizing (expected_fused_stages,
// expects_sized_source) and the DPS verdict (expects_dps_admission) —
// and planning must be
// deterministic (same shape, same plan). Also exercises PlanCache replay:
// an installed profile must be consumed by the next auto-grain plan for
// the same shape key, and never coarsen the grain past the default.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "forkjoin/pool.hpp"
#include "proptest/pipelines.hpp"
#include "proptest/prop.hpp"
#include "streams/parallel_eval.hpp"
#include "streams/stream.hpp"

namespace {

using namespace pls::proptest;
namespace streams = pls::streams;

Config suite_config(int iterations) {
  Config cfg;
  cfg.iterations = iterations;
  return cfg;
}

/// Run the shape through the unified terminal (to_vector == collect with
/// a sized-sink VectorCollector) and return the recorded plan.
streams::ExecutionPlan plan_of(const PipelineShape& s,
                               const streams::ExecutionConfig& cfg = {},
                               bool parallel = false) {
  if (parallel) {
    auto out = build_stream(s).with_config(cfg).parallel().to_vector();
    (void)out;
  } else {
    auto out = build_stream(s).with_config(cfg).to_vector();
    (void)out;
  }
  return streams::last_plan();
}

/// The fuse step's verdict — which stages it stripped and which layer
/// became the source — matches the shape predicates: the plan reports the
/// stripped stage count and the source's real sizing (an iterate or
/// drop_while source is not SIZED).
TEST(PlanEquivalence, FusionVerdictMatchesLegacyPredicate) {
  const auto result = check(
      "plan stages/sized == expected_fused_stages/expects_sized_source",
      suite_config(150), [](Rand& r) { return gen_pipeline(r, 10); },
      [](const PipelineShape& s) { return shrink_pipeline(s); },
      [](const PipelineShape& s) -> PropStatus {
        const auto plan = plan_of(s);
        if (plan.stages != expected_fused_stages(s)) {
          return PropStatus::fail(
              "plan has " + std::to_string(plan.stages) +
              " fused stages, expected " +
              std::to_string(expected_fused_stages(s)) + ": " +
              s.debug_string());
        }
        if (plan.sized != expects_sized_source(s)) {
          return PropStatus::fail(
              std::string(plan.sized ? "unsized" : "sized") +
              " source misreported: " + s.debug_string());
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// The planner's DPS verdict matches the shape's admission predicate, and
/// an admitted plan names the window it will write.
TEST(PlanEquivalence, DpsVerdictMatchesLegacyPredicate) {
  const auto result = check(
      "plan.dps == expects_dps_admission", suite_config(150),
      [](Rand& r) { return gen_pipeline(r, 10); },
      [](const PipelineShape& s) { return shrink_pipeline(s); },
      [](const PipelineShape& s) -> PropStatus {
        const auto plan = plan_of(s);
        if (plan.dps != expects_dps_admission(s)) {
          return PropStatus::fail(
              plan.dps ? "planner admitted a shape the DPS predicate "
                         "refused: " +
                             s.debug_string()
                       : "planner refused a shape the DPS predicate "
                         "admitted: " +
                             s.debug_string());
        }
        if (plan.dps) {
          // sorted restarts fusion on its buffer, so the admitted window
          // counts the buffer, not the original source.
          const std::size_t start = fused_chain_start(s);
          const std::uint64_t expected_count =
              start == 0 ? s.size
                         : reference_result(with_op_prefix(s, start)).size();
          if (!plan.window.has_value() ||
              plan.window->count != expected_count) {
            return PropStatus::fail("admitted plan lacks its window: " +
                                    s.debug_string());
          }
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// Same shape, same plan — byte-identical verdicts, reasons, routing and
/// explain() text across repeated planning.
TEST(PlanEquivalence, PlanningIsDeterministic) {
  const auto result = check(
      "same shape => same plan", suite_config(100),
      [](Rand& r) { return gen_pipeline(r, 10); },
      [](const PipelineShape& s) { return shrink_pipeline(s); },
      [](const PipelineShape& s) -> PropStatus {
        const auto a = plan_of(s);
        const auto b = plan_of(s);
        if (a.stages != b.stages || a.dps != b.dps ||
            a.dps_reason != b.dps_reason || a.grain != b.grain ||
            a.drive != b.drive || a.kernel != b.kernel ||
            a.cache_key != b.cache_key || a.explain() != b.explain()) {
          return PropStatus::fail("replanning changed the plan: " +
                                  s.debug_string());
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// PlanCache replay: installing a profile for a plan's shape key makes
/// the next auto-grain plan consume it, tuned no coarser than default.
TEST(PlanEquivalence, PlanCacheReplayTunesGrain) {
  pls::forkjoin::ForkJoinPool pool(2);
  const auto result = check(
      "installed profile => auto-tuned grain", suite_config(40),
      [](Rand& r) {
        PipelineShape s = gen_pipeline(r, 8);
        s.size = gen_pow2_size(r, 4, 10);  // big enough to go parallel
        return s;
      },
      [&pool](const PipelineShape& s) -> PropStatus {
        streams::PlanCache::global().clear();
        auto cfg = streams::ExecutionConfig{}.with_pool(pool).with_auto_grain(
            true);
        const auto before = plan_of(s, cfg, /*parallel=*/true);
        if (before.grain_source == streams::GrainSource::kAutoTuned) {
          return PropStatus::fail("tuned grain without any profile");
        }
        streams::PlanProfile prof;
        prof.samples = 1;
        prof.per_element_ns = 1e3;
        prof.tuned_grain = streams::PlanCache::tuned_grain_for(
            before.source_size, before.parallelism, prof.per_element_ns);
        streams::PlanCache::global().put(before.cache_key, prof);
        const auto after = plan_of(s, cfg, /*parallel=*/true);
        streams::PlanCache::global().clear();
        if (after.grain_source != streams::GrainSource::kAutoTuned) {
          return PropStatus::fail("profile not consumed on replay: " +
                                  s.debug_string());
        }
        if (after.grain > streams::default_grain(after.source_size,
                                                 after.parallelism)) {
          return PropStatus::fail("auto-grain coarser than the default");
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

}  // namespace
