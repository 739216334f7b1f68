// Failure injection: exceptions thrown at every phase of parallel
// execution must propagate cleanly and leave the pool reusable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "forkjoin/pool.hpp"
#include "observe/critical_path.hpp"
#include "observe/run_registry.hpp"
#include "plist/functions.hpp"
#include "plist/plist_view.hpp"
#include "powerlist/algorithms/map_reduce.hpp"
#include "powerlist/executors.hpp"
#include "powerlist/jplf.hpp"
#include "streams/stream.hpp"

namespace {

using pls::forkjoin::ForkJoinPool;
using pls::streams::Stream;

struct Boom : std::runtime_error {
  Boom() : std::runtime_error("boom") {}
};

/// Sum whose basic case throws on any leaf starting above 100.
struct LeafThrower final : pls::powerlist::PowerFunction<int, int> {
  int basic_case(pls::powerlist::PowerListView<const int> leaf,
                 const pls::powerlist::NoContext&) const override {
    if (leaf[0] > 100) throw Boom{};
    return leaf[0];
  }
  int combine(int&& l, int&& r, const pls::powerlist::NoContext&,
              std::size_t) const override {
    return l + r;
  }
};

/// Three-way PList sum whose basic case throws on any leaf starting above
/// 100 (`in_leaf`) or whose combine_n throws at length 27 (otherwise).
struct PListThrower final : pls::plist::PListFunction<int, int> {
  explicit PListThrower(bool in_leaf) : in_leaf(in_leaf) {}

  std::size_t arity(std::size_t) const override { return 3; }
  int basic_case(pls::plist::PListView<const int> leaf,
                 const pls::plist::NoContext&) const override {
    if (in_leaf && leaf[0] > 100) throw Boom{};
    int acc = 0;
    for (std::size_t i = 0; i < leaf.length(); ++i) acc += leaf[i];
    return acc;
  }
  int combine_n(std::vector<int>&& parts, const pls::plist::NoContext&,
                std::size_t length) const override {
    if (!in_leaf && length == 27) throw Boom{};
    return std::accumulate(parts.begin(), parts.end(), 0);
  }

  bool in_leaf;
};

/// JPLF sum whose basic case throws on any leaf starting above 100.
class JplfLeafThrower final
    : public pls::powerlist::jplf::JplfPowerFunction<int, int> {
 public:
  int basic_case(
      const pls::powerlist::jplf::BasePowerList<int>& list) override {
    if (list.view()[0] > 100) throw Boom{};
    return list.view()[0];
  }
  int combine(int l, int r) override { return l + r; }
  std::unique_ptr<JplfPowerFunction> create_left_function() const override {
    return std::make_unique<JplfLeafThrower>();
  }
  std::unique_ptr<JplfPowerFunction> create_right_function() const override {
    return std::make_unique<JplfLeafThrower>();
  }
};

/// The exception contract of a parallel entry point: `run` throws Boom out
/// of it, the pool runs the next job, and the aborted run still appended
/// exactly one RunRecord.
template <typename Run>
void expect_contained(ForkJoinPool& pool, const Run& run) {
  const std::uint64_t before = pls::observe::RunRegistry::global().total();
  EXPECT_THROW(run(), Boom);
  if (pls::observe::kEnabled) {
    EXPECT_EQ(pls::observe::RunRegistry::global().total() - before, 1u);
  }
  EXPECT_EQ(pool.run([] { return 3; }), 3);
}

TEST(Failure, PoolSurvivesRepeatedExceptions) {
  ForkJoinPool pool(4);
  for (int i = 0; i < 50; ++i) {
    EXPECT_THROW(pool.run([]() -> int { throw Boom{}; }), Boom);
    // The pool must still do useful work right after.
    EXPECT_EQ(pool.run([] { return 21 * 2; }), 42);
  }
}

TEST(Failure, NestedForkExceptionUnwindsAllJoins) {
  ForkJoinPool pool(4);
  std::atomic<int> leaves{0};
  auto recurse = [&](auto&& self, int depth) -> void {
    if (depth == 0) {
      if (leaves.fetch_add(1) == 37) throw Boom{};
      return;
    }
    pool.invoke_two([&] { self(self, depth - 1); },
                    [&] { self(self, depth - 1); });
  };
  EXPECT_THROW(pool.run([&] { recurse(recurse, 7); }), Boom);
  // All joins completed before the rethrow: the pool is healthy.
  EXPECT_EQ(pool.run([] { return 1; }), 1);
}

TEST(Failure, StreamMapExceptionInParallelCollect) {
  ForkJoinPool pool(4);
  EXPECT_THROW(Stream<int>::range(0, 100000)
                   .parallel()
                   .via(pool)
                   .map([](int v) {
                     if (v == 54321) throw Boom{};
                     return v;
                   })
                   .to_vector(),
               Boom);
  // Pool healthy afterwards.
  EXPECT_EQ(pool.run([] { return 5; }), 5);
}

TEST(Failure, CollectorAccumulatorException) {
  auto c = pls::streams::make_collector<int>(
      [] { return 0L; },
      [](long& acc, const int& v) {
        if (v == 600) throw Boom{};
        acc += v;
      },
      [](long& l, long& r) { l += r; });
  EXPECT_THROW(Stream<int>::range(0, 1000).parallel().collect(c), Boom);
}

TEST(Failure, CollectorCombinerException) {
  auto c = pls::streams::make_collector<int>(
      [] { return 0L; }, [](long& acc, const int& v) { acc += v; },
      [](long&, long&) -> void { throw Boom{}; });
  EXPECT_THROW(Stream<int>::range(0, 1000)
                   .parallel()
                   .with_min_chunk(10)
                   .collect(c),
               Boom);
}

TEST(Failure, PowerFunctionBasicCaseException) {
  ForkJoinPool pool(4);
  const LeafThrower f;
  std::vector<int> data(256);
  std::iota(data.begin(), data.end(), 0);
  EXPECT_THROW(
      pls::powerlist::execute_forkjoin(pool, f, pls::powerlist::view_of(data),
                                       {}, 4),
      Boom);
  EXPECT_EQ(pool.run([] { return 3; }), 3);
}

TEST(Failure, PowerFunctionCombineException) {
  // A combine that throws above the leaves: sequential and fork-join run
  // the same walk, so both surface the exception, and the pool still runs
  // the next job.
  ForkJoinPool pool(4);
  struct Thrower final : pls::powerlist::PowerFunction<int, int> {
    int basic_case(pls::powerlist::PowerListView<const int> leaf,
                   const pls::powerlist::NoContext&) const override {
      return leaf[0];
    }
    int combine(int&& l, int&& r, const pls::powerlist::NoContext&,
                std::size_t length) const override {
      if (length == 16) throw Boom{};
      return l + r;
    }
  } f;
  std::vector<int> data(256);
  std::iota(data.begin(), data.end(), 0);
  const auto view = pls::powerlist::view_of(std::as_const(data));
  EXPECT_THROW(pls::powerlist::execute_sequential(f, view, {}, 4), Boom);
  EXPECT_THROW(pls::powerlist::execute_forkjoin(pool, f, view, {}, 4), Boom);
  EXPECT_EQ(pool.run([] { return 3; }), 3);
}

TEST(Failure, PListBasicCaseException) {
  ForkJoinPool pool(4);
  const PListThrower f(/*in_leaf=*/true);
  std::vector<int> data(243);
  std::iota(data.begin(), data.end(), 0);
  const auto view = pls::plist::PListView<const int>::over(data);
  expect_contained(pool, [&] {
    (void)pls::plist::execute_forkjoin(pool, f, view, {}, 9);
  });
}

TEST(Failure, PListCombineException) {
  ForkJoinPool pool(4);
  const PListThrower f(/*in_leaf=*/false);
  std::vector<int> data(243);
  std::iota(data.begin(), data.end(), 0);
  const auto view = pls::plist::PListView<const int>::over(data);
  EXPECT_THROW((void)pls::plist::execute_sequential(f, view, {}, 9), Boom);
  expect_contained(pool, [&] {
    (void)pls::plist::execute_forkjoin(pool, f, view, {}, 9);
  });
}

TEST(Failure, JplfBasicCaseException) {
  ForkJoinPool pool(4);
  std::vector<int> data(256);
  std::iota(data.begin(), data.end(), 0);
  const pls::powerlist::jplf::TiePowerList<int> list(
      pls::powerlist::view_of(std::as_const(data)));
  JplfLeafThrower f;
  EXPECT_THROW((void)f.compute(list), Boom);
  expect_contained(pool, [&] { (void)f.compute_parallel(pool, list); });
}

TEST(Failure, ProfiledRunThatThrowsLeavesRecorderDisabled) {
  if (!pls::observe::kEnabled) {
    GTEST_SKIP() << "the recorder is a no-op shell under PLS_OBSERVE=0";
  }
  ForkJoinPool pool(4);
  const LeafThrower f;
  std::vector<int> data(256);
  std::iota(data.begin(), data.end(), 0);
  // A ProfileSession left by the exception turns the recorder off again.
  EXPECT_THROW(
      {
        pls::observe::ProfileSession profile;
        (void)pls::powerlist::execute_forkjoin(
            pool, f, pls::powerlist::view_of(std::as_const(data)), {}, 4);
      },
      Boom);
  // A recorder left on would make every later run allocate CP nodes.
  EXPECT_FALSE(pls::observe::CriticalPathRecorder::global().enabled());
  pls::observe::CriticalPathRecorder::global().clear();
}

TEST(Failure, SequentialStreamExceptionLeavesNoThreads) {
  // No pool involved in sequential mode: the exception surfaces directly.
  EXPECT_THROW(Stream<int>::range(0, 10)
                   .map([](int v) {
                     if (v == 5) throw Boom{};
                     return v;
                   })
                   .to_vector(),
               Boom);
}

TEST(Failure, BothSidesThrowLeftWins) {
  ForkJoinPool pool(2);
  struct Left : std::runtime_error {
    Left() : std::runtime_error("left") {}
  };
  struct Right : std::runtime_error {
    Right() : std::runtime_error("right") {}
  };
  EXPECT_THROW(pool.run([&] {
    pool.invoke_two([]() { throw Left{}; }, []() { throw Right{}; });
  }),
               Left);
}

}  // namespace
