// service-windows: the streaming service layer under an open loop.
// Set-up opens 256 sessions of `map -> tumbling window 32 -> summing`
// (batch cap 64, kBlock) on a ServiceDriver over the benchmark pool. One
// generator — the driving thread — offers on a fixed schedule: every
// 64/rate seconds one burst of 64 elements (two windows) to the next
// session round-robin, whether or not the service kept up. Between
// offers it calls pump() and polls take_results(). A window's latency
// runs from the due time of its burst (its last element) to the poll
// that returned it, so a stall also charges the windows queued behind it.
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "forkjoin/pool.hpp"
#include "harness.hpp"
#include "observe/run_registry.hpp"
#include "service/driver.hpp"
#include "service/facade.hpp"
#include "streams/collectors.hpp"
#include "streams/static_fusion.hpp"

namespace perfbench {
namespace {

namespace svc = pls::service;

// Offered rate: about half of the ~5 Melem/s this generator sustains on a
// 4-CPU host (README.md, probe numbers).
constexpr double kRateMelemPerS = 2.5;
constexpr std::size_t kSessions = 256;
constexpr std::size_t kWindow = 32;
constexpr std::size_t kBatchCap = 64;
constexpr std::size_t kBurst = 64;  // one scheduled offer: two windows
// Distinct input bursts per session, cycled through by the schedule.
constexpr std::size_t kBlocks = 64;
constexpr std::size_t kRefWindows = kBlocks * kBurst / kWindow;
// Every 4th window is a latency sample (every window is checked).
constexpr std::uint64_t kLatencySampleEvery = 4;
// The generator pumps at most once per 50 us. pump() scans every session
// (~15 us for 256) and each submit wakes the pool, so pumping on every
// spin of the loop made the generator itself the bottleneck and its p90
// hostage to lock-holder preemption; at this cadence a pump carries a
// few bursts and the schedule keeps up to ~5 Melem/s on a 4-CPU host.
constexpr std::int64_t kPumpIntervalNs = 50'000;
// ~10^4 latency samples per slice; short slices let the median over
// slices skip the host's brief stalls.
constexpr double kSliceSeconds = 0.25;
// One pump cycle in 32 is a tracing candidate, which keeps the span file
// at a few MB for a 25-second run (20k cycles a second).
constexpr std::uint64_t kTraceEvery = 32;

inline double stage(double v) { return v * 1.5 + 0.25; }

auto make_spec() {
  return svc::pipeline(
             pls::streams::stages::map([](double v) { return stage(v); }))
      .window(kWindow)
      .batch(kBatchCap)
      .configure(pls::streams::ExecutionConfig{}.with_overload_policy(
          pls::streams::OverloadPolicy::kBlock))
      .collect(pls::streams::collectors::summing<double>());
}

using Spec = decltype(make_spec());
using SessionPtr =
    decltype(std::declval<const Spec&>().open<double>(
        std::declval<svc::ServiceDriver&>()));

class ServiceWindows final : public Workload {
 public:
  explicit ServiceWindows(std::uint64_t seed)
      : pool_(kWorkers), driver_(&pool_) {
    const Spec spec = make_spec();
    high_watermark_ = spec.config().effective_high_watermark();
    sessions_.reserve(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions_.push_back(spec.open<double>(driver_));
    }
    Rng rng(stream_seed(seed, 4));
    input_.resize(kSessions * kBlocks * kBurst);
    for (double& v : input_) v = rng.uniform(-4.0, 4.0);
    // The one-shot fold per session: each window summed in order, which
    // is the service's own order, so results compare exactly.
    ref_.resize(kSessions * kRefWindows);
    for (std::size_t s = 0; s < kSessions; ++s) {
      const double* in = session_input(s);
      for (std::size_t w = 0; w < kRefWindows; ++w) {
        double acc = 0.0;
        for (std::size_t i = 0; i < kWindow; ++i) acc += stage(in[w * kWindow + i]);
        ref_[s * kRefWindows + w] = acc;
      }
    }
    next_burst_.assign(kSessions, 0);
    pending_.resize(kSessions);
    active_flag_.assign(kSessions, false);
  }

  PassResult run(PassContext& ctx) override {
    PassResult out;
    out.open_loop = true;
    // Warm-up, untimed: one burst per session, drained and checked. Its
    // latency samples are dropped; its checks count like any other.
    for (std::size_t s = 0; s < kSessions; ++s) offer_burst(s, 0, false);
    driver_.drain_all();
    poll(out, /*all=*/true);
    out.samples.clear();
    windows_seen_ = offered_ = completed_ = 0;

    Trace& tr = ctx.trace;
    const double interval_ns = static_cast<double>(kBurst) / kRateMelemPerS * 1e3;
    const auto duration_ns = static_cast<std::int64_t>(ctx.seconds * 1e9);
    // Sized up front: a reallocation mid-schedule would stall the
    // generator for milliseconds.
    out.samples.reserve(static_cast<std::size_t>(
        kRateMelemPerS * 1e6 * (ctx.seconds + 1.0) /
        static_cast<double>(kWindow * kLatencySampleEvery)));
    out.slice_seconds = kSliceSeconds;
    out.slice_elems.assign(
        static_cast<std::size_t>(ctx.seconds / kSliceSeconds), 0.0);
    const std::uint64_t runs0 = pls::observe::RunRegistry::global().total();
    const auto stats0 = queue_totals();
    start_ = now_ns();
    perturb_window_ = ctx.perturb_op;
    std::uint64_t k = 0;  // bursts offered so far
    // One traced operation is a pump cycle: the offers and non-empty polls
    // since the previous pump, and the pump that ends it.
    std::uint64_t cycle = 0;
    auto open_cycle = [&] {
      tr.enabled = cycle % kTraceEvery == 0 && ctx.traced(cycle / kTraceEvery);
      cycle_traced_ = tr.enabled;
      return tr.begin("op", cycle);
    };
    int root = open_cycle();
    double backlog = 0.0;
    for (;;) {
      const std::int64_t now = now_ns();
      if (now - start_ >= duration_ns) break;
      for (;; ++k) {
        const std::int64_t due =
            start_ + static_cast<std::int64_t>(static_cast<double>(k) * interval_ns);
        if (due > now) break;
        const std::size_t s = k % kSessions;
        // kBlock at the generator: a burst that would congest the queue
        // waits (late) while the generator keeps pumping, instead of
        // blocking in offer() with no one left to schedule a drain.
        if (!has_room(s)) break;
        Scope o(tr, "service.offer", cycle);
        const std::int64_t late = now_ns() - due;
        offer_burst(s, due, cycle_traced_);
        o.counts(static_cast<double>(kBurst), static_cast<double>(late));
      }
      if (now_ns() - last_pump_ >= kPumpIntervalNs) {
        last_pump_ = now_ns();
        {
          Scope p(tr, "service.pump", cycle);
          const std::size_t submitted = driver_.pump();
          p.counts(static_cast<double>(submitted),
                   static_cast<double>(kSessions));
        }
        tr.end(root, backlog);
        ++cycle;
        root = open_cycle();
        backlog = static_cast<double>(offered_ - completed_);
      }
      const std::size_t polled = active_.size();
      const std::int64_t t0 = cycle_traced_ ? now_ns() : 0;
      const std::size_t got = poll(out, false);
      if (cycle_traced_ && got > 0) {
        tr.add("service.take", cycle, t0, now_ns(), static_cast<double>(got),
               static_cast<double>(polled));
      }
    }
    tr.end(root, backlog);
    tr.enabled = false;
    // Windows still in flight at the end are drained and checked; their
    // latency samples fall past the schedule's last whole slice unless
    // they were due inside it.
    driver_.drain_all();
    poll(out, true);
    for (std::size_t s = 0; s < kSessions; ++s) {
      out.attempted += pending_[s].size();  // offered but never emitted
      out.failed += pending_[s].size();
      pending_[s].clear();
    }

    tr.enabled = ctx.mode != TraceMode::kOff;
    {
      Scope s(tr, "service.queue_stats", 0);
      const auto stats = queue_totals();
      s.counts(static_cast<double>(stats.drained - stats0.drained),
               static_cast<double>(stats.batches - stats0.batches));
      out.failed += stats.shed - stats0.shed;
    }
    {
      Scope s(tr, "observe.runs", 0);
      s.counts(static_cast<double>(pls::observe::RunRegistry::global().total() - runs0),
               static_cast<double>(completed_));
    }
    tr.enabled = false;

    double offer_ns = 0.0, offered = 0.0, backlog_max = 0.0;
    std::vector<double> late_ms;
    for (const Span& s : tr.spans()) {
      const std::string& name = tr.name_of(s);
      if (name == "service.offer") {
        offer_ns += static_cast<double>(s.end_ns - s.start_ns);
        offered += s.a;
        late_ms.push_back(s.b / 1e6);
      } else if (name == "op") {
        backlog_max = std::max(backlog_max, s.a);
      }
    }
    out.layer["service.offer_ns_per_elem"] = offer_ns / offered;
    out.layer["service.pump_us"] = tr.median_ms("service.pump") * 1e3;
    out.layer["service.pump_hit_ratio"] =
        tr.sum_a("service.pump") / tr.sum_b("service.pump");
    out.layer["service.elems_per_batch"] =
        tr.sum_a("service.queue_stats") / tr.sum_b("service.queue_stats");
    out.layer["service.backlog_max"] = backlog_max;
    out.layer["observe.run_records_per_kelem"] =
        tr.sum_a("observe.runs") / (tr.sum_b("observe.runs") / 1e3);
    out.layer["loadgen.late_p90_ms"] = quantile(late_ms, 0.9);
    return out;
  }

 private:
  struct Pending {
    std::int64_t due = 0;  // ns since start_ (0 during warm-up)
    std::uint32_t ref = 0;
    bool traced = false;
  };

  const double* session_input(std::size_t s) const {
    return input_.data() + s * kBlocks * kBurst;
  }

  svc::QueueStats queue_totals() const {
    svc::QueueStats t;
    for (const auto& s : sessions_) {
      const svc::QueueStats q = s->queue_stats();
      t.drained += q.drained;
      t.batches += q.batches;
      t.shed += q.shed;
    }
    return t;
  }

  bool has_room(std::size_t s) const {
    const svc::QueueStats q = sessions_[s]->queue_stats();
    return !q.congested && q.depth + kBurst < high_watermark_;
  }

  void offer_burst(std::size_t s, std::int64_t due, bool traced) {
    const std::uint64_t j = next_burst_[s]++;
    const std::size_t block = j % kBlocks;
    sessions_[s]->offer_all(session_input(s) + block * kBurst, kBurst);
    offered_ += kBurst;
    for (std::size_t w = 0; w < kBurst / kWindow; ++w) {
      pending_[s].push_back(
          {due - start_,
           static_cast<std::uint32_t>(block * (kBurst / kWindow) + w), traced});
    }
    if (!active_flag_[s]) {
      active_flag_[s] = true;
      active_.push_back(static_cast<std::uint32_t>(s));
    }
  }

  // Take the results of every session with windows outstanding (or of
  // all sessions), check each against the reference and record latency.
  std::size_t poll(PassResult& out, bool all) {
    std::size_t got = 0;
    std::size_t keep_n = 0;
    const std::size_t n = all ? kSessions : active_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t s = all ? i : active_[i];
      std::vector<double> res = sessions_[s]->take_results();
      if (!res.empty()) {
        const std::int64_t seen = now_ns() - start_;
        for (double r : res) {
          ++got;
          ++out.attempted;
          if (pending_[s].empty()) {
            ++out.failed;  // a window nobody offered
            continue;
          }
          const Pending p = pending_[s].front();
          pending_[s].pop_front();
          if (static_cast<std::int64_t>(windows_seen_) == perturb_window_) r += 1.0;
          if (r != ref_[s * kRefWindows + p.ref]) ++out.failed;
          if (windows_seen_ % kLatencySampleEvery == 0) {
            out.samples.push_back({p.due, seen - p.due, kWindow, p.traced});
          }
          ++windows_seen_;
          completed_ += kWindow;
          const auto slice = static_cast<std::size_t>(
              static_cast<double>(seen) / (out.slice_seconds * 1e9));
          if (slice < out.slice_elems.size()) {
            out.slice_elems[slice] += static_cast<double>(kWindow);
          }
        }
      }
      if (!all) {
        if (!pending_[s].empty()) {
          active_[keep_n++] = static_cast<std::uint32_t>(s);
        } else {
          active_flag_[s] = false;
        }
      }
    }
    if (!all) active_.resize(keep_n);
    return got;
  }

  pls::forkjoin::ForkJoinPool pool_;
  svc::ServiceDriver driver_;
  std::vector<SessionPtr> sessions_;
  std::size_t high_watermark_ = 0;
  std::vector<double> input_;
  std::vector<double> ref_;
  std::vector<std::uint64_t> next_burst_;
  std::vector<std::deque<Pending>> pending_;
  std::vector<bool> active_flag_;
  std::vector<std::uint32_t> active_;
  std::int64_t start_ = 0;
  std::int64_t last_pump_ = 0;
  bool cycle_traced_ = false;
  std::int64_t perturb_window_ = -1;
  std::uint64_t windows_seen_ = 0;
  std::uint64_t offered_ = 0;
  std::uint64_t completed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_service_windows(std::uint64_t seed) {
  return std::make_unique<ServiceWindows>(seed);
}

}  // namespace perfbench
