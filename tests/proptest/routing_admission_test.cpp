// Admission boundary of the destination-passing collect: the planner's
// DPS verdict (plan_fused_pipeline over the stream's pipeline) must admit
// exactly the windowed, exactly-sized, power-of-two sources — and both
// routes must
// produce identical results, so a misrouted pipeline is a performance bug,
// never a correctness bug.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "forkjoin/pool.hpp"
#include "proptest/pipelines.hpp"
#include "proptest/prop.hpp"
#include "streams/parallel_eval.hpp"
#include "streams/spliterators.hpp"
#include "streams/stream.hpp"

namespace {

using namespace pls::proptest;
namespace streams = pls::streams;

Config suite_config(int iterations) {
  Config cfg;
  cfg.iterations = iterations;
  return cfg;
}

/// The planner's DPS verdict for a sized-sink collect over `stream`.
bool dps_admitted(const streams::Stream<std::int64_t>& stream) {
  return streams::plan_fused_pipeline(
             stream.pipeline(), streams::TerminalKind::kCollect,
             /*collector_sized=*/true, /*chunk_collector=*/false,
             /*parallel=*/false, streams::ExecutionConfig{},
             streams::PlanOrigin::kDynamic)
      .dps;
}

/// Routing matches the documented predicate. Array/Range/Generate
/// sources are windowed and SIZED|SUBSIZED; map/peek keep the chain 1:1
/// while filter/limit/take_while/flat_map/distinct/drop_while stages do
/// not, so admission must reduce to "power-of-two count and an all-1:1
/// chain" — expects_dps_admission.
TEST(RoutingAdmission, WindowPresenceMatchesPowerOfTwoPredicate) {
  const auto result = check(
      "DPS verdict == power-of-two size", suite_config(150),
      [](Rand& r) { return gen_pipeline(r, 10); },
      [](const PipelineShape& s) { return shrink_pipeline(s); },
      [](const PipelineShape& s) -> PropStatus {
        const bool admitted = dps_admitted(build_stream(s));
        if (admitted != expects_dps_admission(s)) {
          return PropStatus::fail(
              admitted
                  ? "non-power-of-two pipeline admitted to the DPS path"
                  : "power-of-two windowed pipeline rejected from the DPS "
                    "path");
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// Stages that lose exact sizing or the window (filter, slice, flat_map)
/// and concat must always route to the supplier/combiner collect, even
/// over a power-of-two source.
TEST(RoutingAdmission, SizeObscuringWrappersAreNeverAdmitted) {
  const auto result = check(
      "filter/slice/flat_map/concat are never admitted", suite_config(60),
      [](Rand& r) {
        PipelineShape s = gen_pipeline(r, 8);
        s.size = gen_pow2_size(r, 1, 8);  // admissible before wrapping
        return std::make_pair(s, r.below(4));
      },
      [](const std::pair<PipelineShape, std::uint64_t>& c) -> PropStatus {
        const PipelineShape& s = c.first;
        const auto wrapped = [&]() -> streams::Stream<std::int64_t> {
          switch (c.second) {
            case 0:
              return build_stream(s).filter(
                  [](const std::int64_t&) { return true; });
            case 1:
              return build_stream(s).limit(s.size / 2 + 1);
            case 2:
              return build_stream(s).flat_map([](const std::int64_t& v) {
                return std::vector<std::int64_t>{v};
              });
            default:
              return streams::Stream<std::int64_t>::concat(
                  build_stream(s), build_stream(s));
          }
        }();
        if (dps_admitted(wrapped)) {
          return PropStatus::fail(
              "size-obscuring wrapper kept DPS admission (variant " +
              std::to_string(c.second) + ")");
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// Routing is invisible to results: forcing the legacy path and allowing
/// the DPS path must collect identical vectors for every generated
/// pipeline, admitted or not.
TEST(RoutingAdmission, BothRoutesCollectIdenticalResults) {
  pls::forkjoin::ForkJoinPool pool(2);
  const auto result = check(
      "with_sized_sink(true) == with_sized_sink(false)", suite_config(80),
      [](Rand& r) { return gen_pipeline(r, 9); },
      [](const PipelineShape& s) { return shrink_pipeline(s); },
      [&](const PipelineShape& s) -> PropStatus {
        const auto expected = reference_result(s);
        for (const bool parallel : {false, true}) {
          for (const bool sized_sink : {false, true}) {
            auto stream = build_stream(s).with_sized_sink(sized_sink);
            if (parallel) {
              stream =
                  std::move(stream).parallel().via(pool).with_min_chunk(4);
            }
            const auto got = std::move(stream).to_vector();
            if (got != expected) {
              return PropStatus::fail(
                  std::string(parallel ? "parallel" : "sequential") +
                  (sized_sink ? " DPS-allowed" : " legacy-forced") +
                  " route diverged from reference");
            }
          }
        }
        return PropStatus::pass();
      });
  PLS_EXPECT_PROP(result);
}

/// Boundary spot checks around powers of two: n-1 / n / n+1.
TEST(RoutingAdmission, ExactBoundaryAroundPowersOfTwo) {
  for (const std::uint64_t pow2 : {2ull, 8ull, 64ull, 1024ull}) {
    for (const std::uint64_t n : {pow2 - 1, pow2, pow2 + 1}) {
      PipelineShape s;
      s.source = SourceKind::kRange;
      s.size = n;
      s.data_seed = 1234;
      EXPECT_EQ(dps_admitted(build_stream(s)), pls::is_power_of_two(n))
          << "n=" << n;
    }
  }
}

}  // namespace
