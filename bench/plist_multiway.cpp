// EXT-PLIST — the multiway extension the paper proposes in Section V:
// trySplit returning a set of spliterators, enabling PList (n-way)
// divide-and-conquer inside the stream machinery.
//
// Two series:
//   wall-clock (google-benchmark): n-way reduce through the multiway
//     collect (the streams split-tree walk asking try_split_n for each
//     arity) for arities 2/3/4/8 — the arity changes split depth, not
//     total work, so times should be close;
//   simulated: PList mergesort arity sweep under the fork-join cost
//     model, showing how higher arity shortens the tree but grows each
//     combine (k-way merge), the classic multiway trade-off.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <numeric>
#include <vector>

#include "plist/functions.hpp"
#include "plist/multiway_spliterator.hpp"
#include "simmachine/scheduler.hpp"
#include "streams/collector.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace pls::plist;

std::shared_ptr<const std::vector<double>> payload(std::size_t n) {
  pls::Xoshiro256 rng(n + 5);
  std::vector<double> v(n);
  for (auto& d : v) d = rng.next_double();
  return std::make_shared<const std::vector<double>>(std::move(v));
}

void multiway_reduce(benchmark::State& state, std::size_t arity) {
  // 8^7 divides by 2, 4 and 8; 3-way uses 3^13-sized payload instead.
  const std::size_t n =
      arity == 3 ? 1594323 /* 3^13 */ : (std::size_t{1} << 21);
  const auto data = payload(n);
  auto summing = pls::streams::make_collector<double>(
      [] { return 0.0; }, [](double& acc, const double& v) { acc += v; },
      [](double& l, double& r) { l += r; });
  for (auto _ : state) {
    std::unique_ptr<pls::streams::Spliterator<double>> sp =
        std::make_unique<NTieSpliterator<double>>(data);
    benchmark::DoNotOptimize(
        evaluate_collect_multiway(sp, summing, arity, true));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

void BM_MultiwayReduceArity2(benchmark::State& s) { multiway_reduce(s, 2); }
void BM_MultiwayReduceArity3(benchmark::State& s) { multiway_reduce(s, 3); }
void BM_MultiwayReduceArity4(benchmark::State& s) { multiway_reduce(s, 4); }
void BM_MultiwayReduceArity8(benchmark::State& s) { multiway_reduce(s, 8); }

// Simulated arity trade-off for mergesort: model the n-ary tree directly
// (the binary simulator hosts n-ary forks as left-leaning fork chains,
// which is also how the fork-join executor actually runs them).
pls::simmachine::TaskTrace::NodeId build_nary(
    pls::simmachine::TaskTrace& trace, std::size_t len, std::size_t arity,
    std::size_t leaf) {
  if (len <= leaf || len % arity != 0) {
    const double c = static_cast<double>(len) *
                     (1.0 + pls::floor_log2(std::max<std::size_t>(len, 2)));
    return trace.add_leaf(c);
  }
  std::vector<pls::simmachine::TaskTrace::NodeId> kids;
  for (std::size_t k = 0; k < arity; ++k) {
    kids.push_back(build_nary(trace, len / arity, arity, leaf));
  }
  // Left-leaning chain of binary forks; the k-way merge cost
  // n*log2(arity) attaches to the outermost combine.
  pls::simmachine::TaskTrace::NodeId acc = kids[0];
  for (std::size_t k = 1; k < arity; ++k) {
    const bool outer = (k + 1 == arity);
    const double merge_cost =
        outer ? static_cast<double>(len) *
                    (1.0 + pls::floor_log2(arity))
              : 0.0;
    acc = trace.add_fork(0.0, merge_cost, acc, kids[k]);
  }
  return acc;
}

void report_simulated_arity_tradeoff() {
  std::printf("\nSimulated mergesort arity trade-off (n=6^6*large, P=8):\n");
  pls::TextTable table({"arity", "sim_ms", "speedup_vs_seq", "utilization"});
  const std::size_t n = 46656ull * 16;  // 6^6 * 16: divides by 2,3,4,6,8...
  pls::simmachine::CostModel model;
  for (std::size_t arity : {2u, 3u, 4u, 6u, 8u}) {
    pls::simmachine::TaskTrace trace;
    trace.set_root(build_nary(trace, n, arity, 512));
    const auto seq = pls::simmachine::Simulator(model, 1).run(trace);
    const auto par = pls::simmachine::Simulator(model, 8).run(trace);
    table.add_row({std::to_string(arity),
                   pls::TextTable::num(par.makespan_ns / 1e6),
                   pls::TextTable::num(seq.makespan_ns / par.makespan_ns, 2),
                   pls::TextTable::num(par.utilization(), 3)});
  }
  table.print();
  std::printf("expected shape: moderate arities win — deeper binary trees\n"
              "spawn more tasks, very wide nodes serialise in the k-way\n"
              "merge at the root.\n");
}

}  // namespace

BENCHMARK(BM_MultiwayReduceArity2)->UseRealTime()->MinTime(0.05);
BENCHMARK(BM_MultiwayReduceArity3)->UseRealTime()->MinTime(0.05);
BENCHMARK(BM_MultiwayReduceArity4)->UseRealTime()->MinTime(0.05);
BENCHMARK(BM_MultiwayReduceArity8)->UseRealTime()->MinTime(0.05);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  report_simulated_arity_tradeoff();
  return 0;
}
