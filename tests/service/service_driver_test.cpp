// ServiceDriver: multiplexing many sessions over one ForkJoinPool,
// the quiescence barrier, the background pump, the metrics source, and
// one RunRecord with origin "service" per drained micro-batch. Includes
// the acceptance-scale smoke: >= 1000 concurrent sessions on one pool.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "forkjoin/pool.hpp"
#include "observe/config.hpp"
#include "observe/metrics.hpp"
#include "observe/run_registry.hpp"
#include "pls.hpp"

namespace {

namespace service = pls::service;
namespace streams = pls::streams;
using pls::stages::map;

TEST(ServiceDriver, MultiplexesOneThousandSessions) {
  constexpr std::size_t kSessions = 1000;
  constexpr int kPerSession = 64;
  constexpr std::size_t kWindow = 16;

  service::ServiceDriver driver;
  const auto spec = service::pipeline(map([](int v) { return v * 2; }))
                        .window(kWindow)
                        .collect(streams::collectors::summing<int>());

  std::vector<std::shared_ptr<service::SessionBase>> bases;
  std::vector<std::function<std::vector<int>()>> takers;
  std::vector<std::function<std::uint64_t()>> batch_counts;
  for (std::size_t s = 0; s < kSessions; ++s) {
    auto session = spec.open<int>(driver);
    for (int i = 0; i < kPerSession; ++i) session->offer(i);
    bases.push_back(session);
    takers.emplace_back([session] { return session->take_results(); });
    batch_counts.emplace_back([session] { return session->batches_run(); });
  }
  EXPECT_EQ(driver.session_count(), kSessions);

  driver.drain_all();

  // Every session: 64 inputs / window 16 = 4 windows, each summing
  // 2 * (16k .. 16k+15).
  for (std::size_t s = 0; s < kSessions; ++s) {
    const auto got = takers[s]();
    ASSERT_EQ(got.size(), kPerSession / kWindow) << "session " << s;
    for (std::size_t w = 0; w < got.size(); ++w) {
      int want = 0;
      for (std::size_t j = 0; j < kWindow; ++j) {
        want += 2 * static_cast<int>(w * kWindow + j);
      }
      EXPECT_EQ(got[w], want) << "session " << s << " window " << w;
    }
    EXPECT_GE(batch_counts[s](), 1u);
    EXPECT_EQ(bases[s]->queue_stats().depth, 0u);
  }
}

TEST(ServiceDriver, ConcurrentProducersWithExplicitPumps) {
  // Producers race offers from several threads while the main thread
  // pumps; drain_all() at the end is the quiescence barrier.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;

  pls::forkjoin::ForkJoinPool pool(4);
  service::ServiceDriver driver(&pool);
  auto session =
      service::pipeline()
          .window(1)
          .configure(streams::ExecutionConfig{}.with_queue_capacity(1 << 14))
          .collect(streams::collectors::counting<int>())
          .open<int>(driver);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&session] {
      for (int i = 0; i < kPerProducer; ++i) session->offer(i);
    });
  }
  for (int i = 0; i < 50; ++i) {
    driver.pump();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (auto& t : producers) t.join();
  driver.drain_all();

  const auto counts = session->take_results();
  EXPECT_EQ(counts.size(), kProducers * kPerProducer);  // window of 1
  for (const auto c : counts) EXPECT_EQ(c, 1u);
  EXPECT_EQ(session->queue_stats().shed, 0u);
}

TEST(ServiceDriver, BackgroundPumpDrainsWithoutExplicitCalls) {
  service::ServiceDriver driver;
  auto session = service::pipeline(map([](int v) { return v + 1; }))
                     .window(8)
                     .collect(streams::collectors::summing<int>())
                     .open<int>(driver);
  driver.start(std::chrono::milliseconds(1));
  for (int i = 0; i < 64; ++i) session->offer(i);

  // Poll for the pump to have serviced everything (bounded wait).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (session->queue_stats().depth > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  driver.stop();
  driver.drain_all();  // flush anything the last sweep left behind

  EXPECT_EQ(session->take_results().size(), 8u);  // 64 / window 8
  EXPECT_EQ(session->queue_stats().depth, 0u);
}

TEST(ServiceDriver, ExportsMetricsRows) {
  if (!pls::observe::kEnabled) GTEST_SKIP() << "PLS_OBSERVE=0";
  service::ServiceDriver driver;
  auto session = service::pipeline()
                     .window(2)
                     .collect(streams::collectors::counting<int>())
                     .open<int>(driver);
  for (int i = 0; i < 8; ++i) session->offer(i);
  driver.drain_all();
  session->offer(42);  // leave one element queued for the depth gauges

  const auto sample = pls::observe::MetricsRegistry::global().collect();
  double sessions = -1.0, depth_total = -1.0, batches = -1.0;
  bool latency_p50 = false, per_session_row = false;
  for (const auto& row : sample.rows) {
    if (row.name == "pls_service_sessions") sessions = row.value;
    if (row.name == "pls_service_queue_depth_total") depth_total = row.value;
    if (row.name == "pls_service_batches_total") batches = row.value;
    if (row.name == "pls_service_batch_latency_ns" &&
        row.label_value == "0.5") {
      latency_p50 = true;
    }
    if (row.name == "pls_service_queue_depth" && row.label_key == "session") {
      per_session_row = true;
    }
  }
  EXPECT_EQ(sessions, 1.0);
  EXPECT_EQ(depth_total, 1.0);
  EXPECT_GE(batches, 1.0);
  EXPECT_TRUE(latency_p50);
  EXPECT_TRUE(per_session_row);  // fleet of 1 < kPerSessionRowLimit
}

TEST(ServiceDriver, OneRunRecordPerDrainedBatch) {
  if (!pls::observe::kEnabled) GTEST_SKIP() << "PLS_OBSERVE=0";
  auto& registry = pls::observe::RunRegistry::global();
  const std::uint64_t before = registry.total();

  service::ServiceDriver driver;
  auto session = service::pipeline(map([](int v) { return v * 3; }))
                     .window(4)
                     .batch(8)
                     .collect(streams::collectors::summing<int>())
                     .open<int>(driver);
  for (int i = 0; i < 40; ++i) session->offer(i);
  driver.drain_all();

  const std::uint64_t batches = session->batches_run();
  EXPECT_GE(batches, 5u);  // 40 elements, micro-batches capped at 8

  std::uint64_t service_records = 0;
  for (const auto& rec : registry.records_since(before)) {
    if (std::string_view(rec.origin) == "service") {
      ++service_records;
      EXPECT_STREQ(rec.drive, "sequential");
      EXPECT_GT(rec.source_size, 0u);
      EXPECT_LE(rec.source_size, 8u);
    }
  }
  EXPECT_EQ(service_records, batches);
}

TEST(ServiceDriver, DriverDestructionQuiescesCleanly) {
  // A driver with queued work and a running pump must tear down without
  // leaks or races: stop, quiesce, deregister.
  for (int round = 0; round < 3; ++round) {
    service::ServiceDriver driver;
    auto session = service::pipeline()
                       .window(4)
                       .collect(streams::collectors::counting<int>())
                       .open<int>(driver);
    driver.start(std::chrono::milliseconds(1));
    for (int i = 0; i < 100; ++i) session->offer(i);
    driver.pump();
    // Destructor runs here with drains possibly in flight.
  }
}

}  // namespace
