// ServiceSession: one long-lived connection through the streaming
// service — an ingest queue feeding a fused pipeline that is planned
// once and driven once per micro-batch, terminating in count-based
// windowed aggregation (docs/service.md).
//
// The session is the put/service pair of the STREAMS model (ROADMAP
// item 3): offer() is the put procedure (runs on the producer's thread,
// cheap, just enqueues), drain() is the service procedure (runs on a
// ForkJoinPool worker under the driver, pushes whole batches through the
// planned chain). The pipeline is the same machinery batch terminals
// use — fuse_source + StaticChainStage + the Sink push protocol — with
// exactly two service-specific pieces:
//
//   BatchSpliterator  a rebindable contiguous source (Spliterator +
//                     WindowedSource + ReusableSource): bind() points it
//                     at the next drained batch, FusedPipeline::reset()
//                     re-arms it, and the chain is driven again without
//                     re-planning or re-allocating anything.
//   WindowSink        a persistent terminal sink whose tumbling/sliding
//                     count windows span batch boundaries: begin()/end()
//                     per batch are no-ops, so window results depend only
//                     on the element sequence — never on how the queue
//                     happened to slice it into micro-batches. That
//                     independence is what the differential suite checks
//                     against one-shot batch pipelines, bit for bit.
//
// Windows are element-count based: a tumbling window of N emits one
// collector result per N chain outputs; a sliding window of (N, slide)
// emits over the last N outputs every `slide` outputs once N have been
// seen. A trailing partial window is never emitted (same convention both
// sides of the differential test).
//
// Telemetry: every drained batch runs under a streams::RunScope with
// PlanOrigin::kService (one RunRecord per batch) and records its service
// time into a per-session latency histogram the driver exports.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "observe/config.hpp"
#include "observe/histogram.hpp"
#include "service/queue.hpp"
#include "streams/collector.hpp"
#include "streams/fusion.hpp"
#include "streams/plan.hpp"
#include "streams/sink.hpp"
#include "streams/spliterator.hpp"
#include "streams/static_fusion.hpp"
#include "support/assert.hpp"

namespace pls::service {

/// Contiguous source over the session's current drained batch. bind()
/// repoints it (the span must stay alive for the drive — the session's
/// drain buffer does), rearm() rewinds it; together they make the fused
/// chain reusable across micro-batches. Never splits: one micro-batch is
/// one leaf by design (parallelism comes from many sessions, and window
/// state is inherently sequential).
template <typename T>
class BatchSpliterator final : public streams::Spliterator<T>,
                               public streams::WindowedSource,
                               public streams::ReusableSource {
 public:
  using Action = typename streams::Spliterator<T>::Action;

  void bind(const T* data, std::size_t n) {
    data_ = data;
    begin_ = 0;
    end_ = n;
  }

  void rearm() override { begin_ = 0; }

  bool try_advance(Action action) override {
    if (begin_ >= end_) return false;
    action(data_[begin_++]);
    return true;
  }

  void for_each_remaining(Action action) override {
    for (std::size_t i = begin_; i < end_; ++i) action(data_[i]);
    begin_ = end_;
  }

  std::pair<const T*, std::size_t> try_chunk(T*, std::size_t max_n) override {
    const std::size_t remaining = end_ - begin_;
    const std::size_t n = remaining < max_n ? remaining : max_n;
    if (n == 0) return {nullptr, 0};
    const T* p = data_ + begin_;
    begin_ += n;
    return {p, n};
  }

  std::unique_ptr<streams::Spliterator<T>> try_split() override {
    return nullptr;
  }

  std::uint64_t estimate_size() const override { return end_ - begin_; }

  streams::Characteristics characteristics() const override {
    return streams::kOrdered | streams::kSized | streams::kSubsized |
           streams::kImmutable;
  }

  std::optional<streams::OutputWindow> try_output_window() const override {
    return streams::OutputWindow{begin_, 1, end_ - begin_};
  }

 private:
  const T* data_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

/// Persistent windowed-aggregation terminal: folds chain outputs into
/// count windows with an ordinary Collector and emits one finished
/// result per complete window. Lives as long as the session; batch
/// begin()/end() deliberately do nothing so windows span batches.
template <typename Out, typename C>
class WindowSink final : public streams::Sink<Out> {
 public:
  using result_type = typename C::result_type;
  using accumulation_type = typename C::accumulation_type;
  using Emit = std::function<void(result_type)>;

  WindowSink(C collector, std::size_t window, std::size_t slide, Emit emit)
      : collector_(std::move(collector)),
        window_(window),
        slide_(slide),
        emit_(std::move(emit)) {
    PLS_CHECK(window_ > 0, "window size must be > 0");
    PLS_CHECK(slide_ > 0 && slide_ <= window_,
              "window slide must be in [1, window]");
  }

  void begin(std::uint64_t) override {}  // windows span batches
  void end() override {}

  void accept(const Out& value) override {
    if (slide_ == window_) {
      accept_tumbling(value);
    } else {
      accept_sliding(value);
    }
  }

  /// Complete windows emitted so far.
  std::uint64_t windows_emitted() const noexcept { return emitted_; }

 private:
  /// Tumbling: accumulate incrementally, finish and restart every
  /// `window_` elements. O(1) amortised per element.
  void accept_tumbling(const Out& value) {
    if (!acc_.has_value()) acc_.emplace(collector_.supply());
    collector_.accumulate(*acc_, value);
    if (++filled_ == window_) {
      emit_(collector_.finish(std::move(*acc_)));
      ++emitted_;
      acc_.reset();
      filled_ = 0;
    }
  }

  /// Sliding: keep the last `window_` elements and re-fold the collector
  /// over them (oldest first — encounter order) at every emission point.
  /// O(window) per emission; overlapping windows make incremental
  /// accumulation impossible for a general (non-invertible) collector.
  void accept_sliding(const Out& value) {
    ring_.push_back(value);
    if (ring_.size() > window_) ring_.pop_front();
    ++seen_;
    if (seen_ < window_ || (seen_ - window_) % slide_ != 0) return;
    accumulation_type acc = collector_.supply();
    for (const Out& e : ring_) collector_.accumulate(acc, e);
    emit_(collector_.finish(std::move(acc)));
    ++emitted_;
  }

  C collector_;
  const std::size_t window_;
  const std::size_t slide_;
  Emit emit_;
  std::uint64_t emitted_ = 0;

  // tumbling state
  std::optional<accumulation_type> acc_;
  std::size_t filled_ = 0;

  // sliding state
  std::deque<Out> ring_;
  std::uint64_t seen_ = 0;
};

/// Type-erased face of a session, what the driver multiplexes. The
/// claim flag serialises drains *within* one session (window state is
/// sequential) while the driver runs many sessions' drains concurrently.
class SessionBase {
 public:
  explicit SessionBase(std::uint64_t id) : id_(id) {}
  virtual ~SessionBase() = default;

  SessionBase(const SessionBase&) = delete;
  SessionBase& operator=(const SessionBase&) = delete;

  std::uint64_t id() const noexcept { return id_; }

  /// True when the queue holds something to drain.
  virtual bool ready() const = 0;

  /// Drain one micro-batch through the pipeline — or, with `drain_all`,
  /// keep going until the queue is empty. Caller must hold the claim.
  virtual void drain(bool drain_all) = 0;

  virtual QueueStats queue_stats() const = 0;

  /// Per-session batch service-time histogram (ticks; zeros when
  /// PLS_OBSERVE=0).
  virtual observe::HistogramSnapshot latency() const = 0;

  /// Exclusive drain ticket. The driver claims before submitting a drain
  /// task and the task releases when done, so one session never has two
  /// concurrent drains while thousands of sessions drain in parallel.
  bool try_claim() noexcept {
    bool expected = false;
    return claimed_.compare_exchange_strong(expected, true,
                                            std::memory_order_acquire);
  }
  void release() noexcept { claimed_.store(false, std::memory_order_release); }

 private:
  const std::uint64_t id_;
  std::atomic<bool> claimed_{false};
};

/// One connection: ingest queue -> planned fused chain -> window sink.
/// In = ingest element type, C = collector over the chain's output,
/// Ops = the compile-time stage stack (possibly empty).
template <typename In, typename C, typename... Ops>
class ServiceSession final : public SessionBase {
 public:
  using chain_output = streams::chain_output_t<In, Ops...>;
  using result_type = typename C::result_type;

  static_assert(std::is_same_v<typename C::input_type, chain_output>,
                "collector input type must match the stage chain's output");

  ServiceSession(std::uint64_t id,
                 std::shared_ptr<const std::tuple<Ops...>> ops, C collector,
                 std::size_t window, std::size_t slide, std::size_t max_batch,
                 const streams::ExecutionConfig& cfg)
      : SessionBase(id),
        cfg_(cfg),
        queue_(cfg.queue_capacity, cfg.effective_high_watermark(),
               cfg.effective_low_watermark(), cfg.overload),
        max_batch_(max_batch),
        sink_(std::move(collector), window, slide,
              [this](result_type r) { emit(std::move(r)); }) {
    PLS_CHECK(max_batch_ > 0, "micro-batch size must be > 0");
    auto batch_source = std::make_unique<BatchSpliterator<In>>();
    source_ = batch_source.get();
    fused_ = streams::fuse_source<In>(std::move(batch_source));
    if constexpr (sizeof...(Ops) > 0) {
      fused_->append_stage(
          std::make_shared<streams::StaticChainStage<In, Ops...>>(
              std::move(ops)));
    }
    // Planned once; per batch only source_size changes (patched in
    // run_batch so each RunRecord reports its real batch size).
    plan_ = streams::plan_fused_pipeline(
        *fused_, streams::TerminalKind::kCollect, /*collector_sized=*/false,
        /*chunk_collector=*/false, /*parallel=*/false, cfg_,
        streams::PlanOrigin::kService);
  }

  // ---- put side (any thread) -----------------------------------------

  /// Offer one element; see IngestQueue::offer for the overload contract.
  bool offer(In value) { return queue_.offer(std::move(value)); }

  /// Offer a span of elements; returns how many were accepted.
  std::size_t offer_all(const In* values, std::size_t n) {
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (queue_.offer(values[i])) ++accepted;
    }
    return accepted;
  }

  // ---- service side (driver workers) ---------------------------------

  bool ready() const override { return !queue_.empty(); }

  void drain(bool drain_all) override {
    do {
      const std::size_t n = queue_.drain_batch(batch_, max_batch_);
      if (n == 0) return;
      run_batch(n);
    } while (drain_all);
  }

  // ---- results and telemetry -----------------------------------------

  /// Window results emitted since the last take (encounter order).
  std::vector<result_type> take_results() {
    std::lock_guard<std::mutex> lock(results_mutex_);
    std::vector<result_type> out;
    out.swap(results_);
    return out;
  }

  QueueStats queue_stats() const override { return queue_.stats(); }

  observe::HistogramSnapshot latency() const override {
    return latency_.snapshot();
  }

  std::uint64_t batches_run() const noexcept {
    return batches_.load(std::memory_order_relaxed);
  }

  const streams::ExecutionPlan& plan() const noexcept { return plan_; }
  const streams::ExecutionConfig& stream_config() const noexcept {
    return cfg_;
  }

 private:
  void run_batch(std::size_t n) {
    const std::uint64_t t0 = observe::now_ticks();
    source_->bind(batch_.data(), n);
    fused_->reset();
    streams::ExecutionPlan p = plan_;
    p.source_size = n;
    streams::record_plan(p);
    {
      streams::RunScope scope(p);
      fused_->drive(sink_);
    }
    latency_.record(observe::now_ticks() - t0);
    batches_.fetch_add(1, std::memory_order_relaxed);
  }

  void emit(result_type r) {
    std::lock_guard<std::mutex> lock(results_mutex_);
    results_.push_back(std::move(r));
  }

  const streams::ExecutionConfig cfg_;
  IngestQueue<In> queue_;
  std::vector<In> batch_;  ///< drain buffer, alive across the drive
  const std::size_t max_batch_;

  WindowSink<chain_output, C> sink_;
  BatchSpliterator<In>* source_ = nullptr;  ///< owned by fused_
  std::unique_ptr<streams::FusedPipeline> fused_;
  streams::ExecutionPlan plan_;

  std::mutex results_mutex_;
  std::vector<result_type> results_;
  observe::Histogram latency_;
  std::atomic<std::uint64_t> batches_{0};
};

}  // namespace pls::service
