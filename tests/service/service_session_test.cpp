// The differential suite for the service layer (ISSUE acceptance): a
// session fed interleaved micro-batches must produce byte-identical
// window results to the equivalent one-shot batch pipeline, because
// WindowSink's windows are element-count based and deliberately span
// batch boundaries. Also pins the FusedPipeline reuse contract
// (reset()/ReusableSource, single-drive chains) and the ExecutionConfig
// service-knob round-trip through pls::session::stream_config().
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "pls.hpp"
#include "streams/spliterators.hpp"

namespace {

namespace service = pls::service;
namespace streams = pls::streams;
using pls::stages::filter;
using pls::stages::map;

std::vector<double> noisy_doubles(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Deterministic, irregular, not bit-friendly: exercises real fp folds.
    v[i] = std::sin(static_cast<double>(i) * 0.7) * 100.0 +
           static_cast<double>(i % 13) * 0.037;
  }
  return v;
}

/// The reference side of the differential: fold `collector` over each
/// count window of the pre-computed chain outputs, oldest first — the
/// exact emission rule WindowSink implements.
template <typename C, typename T>
std::vector<typename C::result_type> reference_windows(
    const C& collector, const std::vector<T>& outs, std::size_t window,
    std::size_t slide) {
  std::vector<typename C::result_type> res;
  if (outs.size() < window) return res;
  for (std::size_t start = 0; start + window <= outs.size(); start += slide) {
    auto acc = collector.supply();
    for (std::size_t j = 0; j < window; ++j) {
      collector.accumulate(acc, outs[start + j]);
    }
    res.push_back(collector.finish(std::move(acc)));
  }
  return res;
}

void expect_bit_identical(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           got.size() * sizeof(double)))
      << "window results differ bitwise from the one-shot batch reference";
}

TEST(ServiceSession, TumblingWindowsMatchOneShotBatchBitwise) {
  const auto input = noisy_doubles(1000);
  const auto xf = [](double v) { return v * 1.5 + 0.25; };
  const auto keep = [](double v) { return v > -40.0; };
  constexpr std::size_t kWindow = 32;

  // One-shot batch side: the same stage vocabulary through pls::pipe,
  // then the reference window fold.
  const auto chain_out =
      pls::pipe(map(xf), filter(keep)).over(input).to_vector();
  const auto expected = reference_windows(
      streams::collectors::summing<double>(), chain_out, kWindow, kWindow);
  ASSERT_GT(expected.size(), 10u);  // the test must actually exercise windows

  // Service side: same stages, same collector, fed in deliberately
  // irregular micro-batches with drains interleaved mid-stream.
  service::ServiceDriver driver;
  auto session = service::pipeline(map(xf), filter(keep))
                     .window(kWindow)
                     .collect(streams::collectors::summing<double>())
                     .open<double>(driver);

  std::vector<double> got;
  std::size_t offered = 0;
  std::size_t chunk = 1;
  while (offered < input.size()) {
    const std::size_t n = std::min(chunk, input.size() - offered);
    EXPECT_EQ(session->offer_all(input.data() + offered, n), n);
    offered += n;
    session->drain(/*drain_all=*/true);  // results must not depend on this
    auto part = session->take_results();
    got.insert(got.end(), part.begin(), part.end());
    chunk = chunk % 2 == 0 ? chunk + 3 : chunk * 2;  // 1,2,5,10,13,26,...
  }
  EXPECT_GT(session->batches_run(), 1u);

  expect_bit_identical(got, expected);
}

TEST(ServiceSession, SlidingWindowsMatchOneShotBatch) {
  const auto input = noisy_doubles(400);
  const auto xf = [](double v) { return v * 0.5; };
  constexpr std::size_t kWindow = 32;
  constexpr std::size_t kSlide = 8;

  const auto chain_out = pls::pipe(map(xf)).over(input).to_vector();
  // to_vector collector: compares whole window contents, the strongest
  // equality there is — every element, every overlap, in order.
  const auto expected = reference_windows(
      streams::collectors::to_vector<double>(), chain_out, kWindow, kSlide);
  ASSERT_GT(expected.size(), 20u);

  service::ServiceDriver driver;
  auto session = service::pipeline(map(xf))
                     .window(kWindow, kSlide)
                     .batch(16)
                     .collect(streams::collectors::to_vector<double>())
                     .open<double>(driver);

  for (std::size_t i = 0; i < input.size(); i += 7) {
    const std::size_t n = std::min<std::size_t>(7, input.size() - i);
    session->offer_all(input.data() + i, n);
    if (i % 3 == 0) session->drain(true);  // drain at arbitrary points
  }
  session->drain(true);

  const auto got = session->take_results();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t w = 0; w < got.size(); ++w) {
    expect_bit_identical(got[w], expected[w]);
  }
}

TEST(ServiceSession, IdentityPipelineWindowsAreInputChunks) {
  // Zero stage ops: the session still fuses (bare BatchSpliterator) and
  // windows chunk the raw input.
  service::ServiceDriver driver;
  auto session = service::pipeline()
                     .window(4)
                     .collect(streams::collectors::to_vector<int>())
                     .open<int>(driver);
  for (int i = 0; i < 12; ++i) session->offer(i);
  session->drain(true);
  const auto got = session->take_results();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(got[1], (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(got[2], (std::vector<int>{8, 9, 10, 11}));
}

TEST(ServiceSession, BatchSlicingDoesNotAffectResults) {
  // Two sessions from one spec: element-at-a-time drains vs one big
  // drain. Window results must be identical — the core service claim.
  const auto input = noisy_doubles(256);
  const auto spec = service::pipeline(map([](double v) { return v * v; }))
                        .window(16)
                        .collect(streams::collectors::summing<double>());

  service::ServiceDriver driver;
  auto fine = spec.open<double>(driver);
  auto coarse = spec.open<double>(driver);
  EXPECT_NE(fine->id(), coarse->id());

  for (const double v : input) {
    fine->offer(v);
    fine->drain(true);  // every batch is a single element
  }
  coarse->offer_all(input.data(), input.size());
  coarse->drain(true);

  const auto a = fine->take_results();
  const auto b = coarse->take_results();
  expect_bit_identical(a, b);
  EXPECT_GT(fine->batches_run(), coarse->batches_run());
}

TEST(ServiceSession, PlanIsServiceOriginAndFused) {
  service::ServiceDriver driver;
  auto session = service::pipeline(map([](int v) { return v + 1; }))
                     .window(8)
                     .collect(streams::collectors::counting<int>())
                     .open<int>(driver);
  const streams::ExecutionPlan& p = session->plan();
  EXPECT_EQ(p.origin, streams::PlanOrigin::kService);
  EXPECT_EQ(p.stages, 1u);  // the static map stack
}

TEST(ServiceSession, CollectWithoutWindowThrows) {
  EXPECT_THROW(service::pipeline(map([](int v) { return v; }))
                   .collect(streams::collectors::counting<int>()),
               pls::precondition_error);
}

TEST(ServiceSession, ConfiguredQueuePolicyIsLive) {
  // The spec's ExecutionConfig really configures the session's queue:
  // a tiny shed queue drops over-offers and counts them.
  service::ServiceDriver driver;
  auto session =
      service::pipeline()
          .window(4)
          .configure(streams::ExecutionConfig{}
                         .with_queue_capacity(32)
                         .with_watermarks(/*high=*/8, /*low=*/2)
                         .with_overload_policy(streams::OverloadPolicy::kShed))
          .collect(streams::collectors::to_vector<int>())
          .open<int>(driver);
  for (int i = 0; i < 100; ++i) session->offer(i);
  const auto s = session->queue_stats();
  EXPECT_EQ(s.offered, 100u);
  EXPECT_EQ(s.accepted, 8u);  // shedding starts at the high mark
  EXPECT_EQ(s.accepted + s.shed, s.offered);
  session->drain(true);
  EXPECT_EQ(session->take_results().size(), 2u);  // 8 accepted / window 4
}

// ---- FusedPipeline reuse contract (satellite fix) ---------------------

template <typename T>
class VecSink final : public streams::Sink<T> {
 public:
  void begin(std::uint64_t) override {}
  void end() override {}
  void accept(const T& v) override { out.push_back(v); }
  std::vector<T> out;
};

TEST(FusedPipelineReuse, SecondDriveWithoutResetThrows) {
  auto data = std::make_shared<const std::vector<long>>(
      std::vector<long>{1, 2, 3, 4});
  std::unique_ptr<streams::Spliterator<long>> sp =
      std::make_unique<streams::ArraySpliterator<long>>(data);
  auto fused = streams::fuse_source<long>(std::move(sp));
  ASSERT_NE(fused, nullptr);

  VecSink<long> sink;
  fused->drive(sink);
  EXPECT_EQ(sink.out, (std::vector<long>{1, 2, 3, 4}));
  EXPECT_THROW(fused->drive(sink), pls::precondition_error);
}

TEST(FusedPipelineReuse, ResetRequiresReusableSource) {
  auto data =
      std::make_shared<const std::vector<long>>(std::vector<long>{1, 2});
  std::unique_ptr<streams::Spliterator<long>> sp =
      std::make_unique<streams::ArraySpliterator<long>>(data);
  auto fused = streams::fuse_source<long>(std::move(sp));
  ASSERT_NE(fused, nullptr);
  VecSink<long> sink;
  fused->drive(sink);
  // ArraySpliterator is not a ReusableSource: reset must refuse, not
  // silently replay a consumed source.
  EXPECT_THROW(fused->reset(), pls::precondition_error);
}

TEST(FusedPipelineReuse, CancellingChainIsSingleDrive) {
  auto data = std::make_shared<const std::vector<long>>(
      std::vector<long>{1, 2, 3, 4, 5, 6, 7, 8});
  std::unique_ptr<streams::Spliterator<long>> sp =
      std::make_unique<streams::ArraySpliterator<long>>(data);
  auto fused = streams::fuse_source<long>(std::move(sp));
  ASSERT_NE(fused, nullptr);
  fused->append_stage(
      std::make_shared<streams::SliceStage<long>>(/*skip=*/0, /*limit=*/3));
  ASSERT_TRUE(fused->cancels());
  // A short-circuited chain consumed an unknowable prefix of its source:
  // reset is refused even before any drive.
  EXPECT_THROW(fused->reset(), pls::precondition_error);
}

TEST(FusedPipelineReuse, BatchSpliteratorResetReplaysAndRebinds) {
  auto owned = std::make_unique<service::BatchSpliterator<long>>();
  auto* src = owned.get();
  std::unique_ptr<streams::Spliterator<long>> sp = std::move(owned);
  auto fused = streams::fuse_source<long>(std::move(sp));
  ASSERT_NE(fused, nullptr);

  const std::vector<long> first{10, 20, 30};
  const std::vector<long> second{7, 8};

  VecSink<long> sink;
  src->bind(first.data(), first.size());
  fused->drive(sink);
  fused->reset();
  src->bind(second.data(), second.size());
  fused->drive(sink);
  EXPECT_EQ(sink.out, (std::vector<long>{10, 20, 30, 7, 8}));

  // rearm() without rebinding replays the same span.
  fused->reset();
  VecSink<long> replay;
  fused->drive(replay);
  EXPECT_EQ(replay.out, second);
}

TEST(FusedPipelineReuse, BatchSpliteratorForwardsTheBoundSpanItself) {
  // The bulk hook hands the bound micro-batch over in place: the pointer
  // is the caller's storage, bounded by max_n, and the scratch buffer is
  // never written. A fused drive passes the whole batch as one chunk.
  const std::vector<long> batch{5, -3, 9, 12, 40};
  service::BatchSpliterator<long> src;
  src.bind(batch.data(), batch.size());
  std::vector<long> scratch(2, -1);
  const auto [p, n] = src.try_chunk(scratch.data(), 2);
  EXPECT_EQ(p, batch.data());
  EXPECT_EQ(n, 2u);
  const auto [q, m] = src.try_chunk(nullptr, ~std::size_t{0});
  EXPECT_EQ(q, batch.data() + 2);
  EXPECT_EQ(m, 3u);
  EXPECT_EQ(src.try_chunk(scratch.data(), 2).first, nullptr);
  EXPECT_EQ(scratch, std::vector<long>(2, -1));

  class ChunkSink final : public streams::Sink<long> {
   public:
    void accept(const long& v) override { out.push_back(v); }
    void accept_chunk(const long* v, std::size_t k) override {
      chunks.push_back(v);
      out.insert(out.end(), v, v + k);
    }
    std::vector<const long*> chunks;
    std::vector<long> out;
  };
  auto owned = std::make_unique<service::BatchSpliterator<long>>();
  owned->bind(batch.data(), batch.size());
  std::unique_ptr<streams::Spliterator<long>> sp = std::move(owned);
  auto fused = streams::fuse_source<long>(std::move(sp));
  ChunkSink sink;
  fused->drive(sink);
  EXPECT_EQ(sink.chunks, std::vector<const long*>{batch.data()});
  EXPECT_EQ(sink.out, batch);
}

// ---- ExecutionConfig service knobs ------------------------------------

TEST(ServiceConfig, KnobsRoundTripThroughSessionStreamConfig) {
  pls::config cfg;
  cfg.queue_capacity = 512;
  cfg.high_watermark = 128;
  cfg.low_watermark = 16;
  cfg.overload = streams::OverloadPolicy::kSample;
  pls::run(cfg, [&](pls::session& s) {
    const auto ec = s.stream_config();
    EXPECT_EQ(ec.queue_capacity, 512u);
    EXPECT_EQ(ec.high_watermark, 128u);
    EXPECT_EQ(ec.low_watermark, 16u);
    EXPECT_EQ(ec.overload, streams::OverloadPolicy::kSample);
    EXPECT_EQ(ec.effective_high_watermark(), 128u);
    EXPECT_EQ(ec.effective_low_watermark(), 16u);
  });
}

TEST(ServiceConfig, EffectiveWatermarkDefaults) {
  streams::ExecutionConfig ec;
  // Unset marks derive from capacity: high = capacity, low = high / 2.
  EXPECT_EQ(ec.effective_high_watermark(), ec.queue_capacity);
  EXPECT_EQ(ec.effective_low_watermark(), ec.queue_capacity / 2);

  const auto tuned = streams::ExecutionConfig{}
                         .with_queue_capacity(64)
                         .with_watermarks(48)
                         .with_overload_policy(streams::OverloadPolicy::kShed);
  EXPECT_EQ(tuned.effective_high_watermark(), 48u);
  EXPECT_EQ(tuned.effective_low_watermark(), 24u);  // high / 2 when unset
  EXPECT_EQ(tuned.overload, streams::OverloadPolicy::kShed);

  // Out-of-range marks are precondition errors at use.
  EXPECT_THROW(streams::ExecutionConfig{}
                   .with_queue_capacity(8)
                   .with_watermarks(16)
                   .effective_high_watermark(),
               pls::precondition_error);
}

TEST(ServiceConfig, OverloadPolicyNames) {
  EXPECT_STREQ(streams::overload_policy_name(streams::OverloadPolicy::kBlock),
               "block");
  EXPECT_STREQ(streams::overload_policy_name(streams::OverloadPolicy::kShed),
               "shed");
  EXPECT_STREQ(streams::overload_policy_name(streams::OverloadPolicy::kSample),
               "sample");
}

}  // namespace
