// Scoped span recorder with a chrome://tracing JSON exporter.
//
// Execution layers mark phases with RAII Spans (fork/join/split/
// accumulate/combine/...); each completed span becomes one event in a
// per-thread buffer. Recording is double-gated:
//   - compile time: PLS_OBSERVE=0 turns Span into an empty struct and
//     every recorder method into a no-op (zero codegen);
//   - run time: the recorder is disabled by default; a disabled Span
//     costs one relaxed atomic load.
// Timestamps are raw TSC ticks (observe/config.hpp) converted to
// nanoseconds at export. The simulated machine records through
// record_virtual() with its own virtual clock, so real and simulated runs
// share one event schema: real events carry pid 0, simulated pid 1.
//
// Export: chrome_json() renders the Trace Event Format consumed by
// chrome://tracing and https://ui.perfetto.dev ("X" complete events, ts
// and dur in microseconds).
//
// Lifecycle: the recorder's FileSink holds the output path (PLS_TRACE_PATH
// env, or set_output_path()). flush() writes the current snapshot there,
// and enable() registers a process-exit flush, so a bench binary that
// exits early still leaves a valid chrome-trace file behind. TraceSession
// is the scoped form (RecorderScope, observe/config.hpp): it also flushes
// during stack unwinding, which the atexit hook alone would miss.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "observe/config.hpp"
#include "observe/file_sink.hpp"

namespace pls::observe {

enum class EventKind : std::uint8_t {
  kTask,        ///< one fork-join task execution on a worker
  kFork,        ///< invoke_two child push (instant)
  kJoin,        ///< join wait (incl. helping) after the inline left half
  kSplit,       ///< spliterator / PowerList split (descending phase)
  kAccumulate,  ///< leaf chunk accumulation (basic case)
  kCombine,     ///< combiner invocation (ascending phase)
  kSteal,       ///< successful task migration (instant)
};

inline const char* event_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::kTask: return "task";
    case EventKind::kFork: return "fork";
    case EventKind::kJoin: return "join";
    case EventKind::kSplit: return "split";
    case EventKind::kAccumulate: return "accumulate";
    case EventKind::kCombine: return "combine";
    case EventKind::kSteal: return "steal";
  }
  return "?";
}

/// One recorded span, timestamps already converted to nanoseconds and
/// rebased so the earliest event of its pid starts at 0.
struct TraceEvent {
  EventKind kind{};
  std::uint8_t pid = 0;  ///< 0 = real execution, 1 = simulated machine
  std::uint32_t tid = 0; ///< worker / virtual-processor ordinal
  double start_ns = 0.0;
  double dur_ns = 0.0;
  std::uint64_t arg = 0; ///< kind-specific payload (elements, depth, node)
};

#if PLS_OBSERVE

class TraceRecorder {
 public:
  static TraceRecorder& global() {
    static TraceRecorder r;
    return r;
  }

  /// Turn recording on. The first enable also registers an atexit flush,
  /// so an early exit() still writes the configured output file.
  void enable() {
    enabled_.store(true, std::memory_order_relaxed);
    sink_.arm_at_exit([] { TraceRecorder::global().flush(); });
  }
  void disable() noexcept {
    enabled_.store(false, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Destination for flush(); empty disables file output. Initialised
  /// from the PLS_TRACE_PATH environment variable.
  void set_output_path(std::string path) { sink_.set_path(std::move(path)); }
  std::string output_path() const { return sink_.path(); }

  /// Write the current snapshot to the configured output path. A no-op
  /// when no path is set or nothing was recorded; returns whether the
  /// whole file was written. Idempotent — flushing twice rewrites the
  /// same content.
  bool flush() const {
    return sink_.write(
        [this] { return events().empty() ? std::string() : chrome_json(); });
  }

  /// Record one real-time span (timestamps in now_ticks() units).
  void record(EventKind kind, std::uint64_t start_ticks,
              std::uint64_t dur_ticks, std::uint64_t arg = 0) {
    if (!enabled()) return;
    ThreadBuffer& buf = local_buffer();
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.events.push_back(
        RawEvent{kind, 0, buf.tid, start_ticks, dur_ticks, arg});
  }

  /// Record one virtual-time span (timestamps in simulated nanoseconds,
  /// explicit virtual-processor id). Used by the simmachine scheduler.
  void record_virtual(EventKind kind, std::uint32_t vproc, double start_ns,
                      double dur_ns, std::uint64_t arg = 0) {
    if (!enabled()) return;
    ThreadBuffer& buf = local_buffer();
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.events.push_back(RawEvent{kind, 1, vproc,
                                  static_cast<std::uint64_t>(start_ns),
                                  static_cast<std::uint64_t>(dur_ns), arg});
  }

  /// Drop all recorded events (buffers stay registered).
  void clear() {
    std::lock_guard<std::mutex> reg_lock(registry_mutex_);
    for (auto& buf : buffers_) {
      std::lock_guard<std::mutex> lock(buf->mutex);
      buf->events.clear();
    }
  }

  /// Snapshot of all events, converted to nanoseconds and rebased so the
  /// earliest real (pid 0) event starts at t=0; virtual (pid 1) events
  /// already start near 0 on their own clock.
  std::vector<TraceEvent> events() const {
    std::vector<RawEvent> raw;
    {
      std::lock_guard<std::mutex> reg_lock(registry_mutex_);
      for (const auto& buf : buffers_) {
        std::lock_guard<std::mutex> lock(buf->mutex);
        raw.insert(raw.end(), buf->events.begin(), buf->events.end());
      }
    }
    std::uint64_t t0 = ~std::uint64_t{0};
    for (const RawEvent& e : raw) {
      if (e.pid == 0 && e.start < t0) t0 = e.start;
    }
    const double scale = ns_per_tick();
    std::vector<TraceEvent> out;
    out.reserve(raw.size());
    for (const RawEvent& e : raw) {
      TraceEvent t;
      t.kind = e.kind;
      t.pid = e.pid;
      t.tid = e.tid;
      if (e.pid == 0) {
        t.start_ns = static_cast<double>(e.start - t0) * scale;
        t.dur_ns = static_cast<double>(e.dur) * scale;
      } else {
        t.start_ns = static_cast<double>(e.start);
        t.dur_ns = static_cast<double>(e.dur);
      }
      t.arg = e.arg;
      out.push_back(t);
    }
    return out;
  }

  /// The snapshot in Chrome Trace Event Format.
  std::string chrome_json() const {
    const auto evs = events();
    std::ostringstream os;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const TraceEvent& e : evs) {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"" << event_name(e.kind)
         << "\",\"cat\":\"pls\",\"ph\":\"X\",\"pid\":"
         << static_cast<unsigned>(e.pid) << ",\"tid\":" << e.tid
         << ",\"ts\":" << e.start_ns / 1e3 << ",\"dur\":" << e.dur_ns / 1e3
         << ",\"args\":{\"arg\":" << e.arg << "}}";
    }
    os << "]}";
    return os.str();
  }

 private:
  struct RawEvent {
    EventKind kind;
    std::uint8_t pid;
    std::uint32_t tid;
    std::uint64_t start;  // ticks (pid 0) or virtual ns (pid 1)
    std::uint64_t dur;
    std::uint64_t arg;
  };

  /// Per-thread event buffer. The mutex is uncontended on the append path
  /// (only the owner appends); snapshot/clear take it cross-thread.
  /// Buffers are owned by the recorder and outlive their threads.
  struct ThreadBuffer {
    std::mutex mutex;
    std::vector<RawEvent> events;
    std::uint32_t tid = 0;
  };

  TraceRecorder() = default;

  ThreadBuffer& local_buffer() {
    thread_local ThreadBuffer* buf = nullptr;
    if (buf == nullptr) {
      auto owned = std::make_unique<ThreadBuffer>();
      buf = owned.get();
      std::lock_guard<std::mutex> lock(registry_mutex_);
      buf->tid = static_cast<std::uint32_t>(buffers_.size());
      buffers_.push_back(std::move(owned));
    }
    return *buf;
  }

  std::atomic<bool> enabled_{false};
  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  FileSink sink_{"PLS_TRACE_PATH"};
};

/// Scoped tracing under the RecorderScope rule; its flush on exit also
/// runs when an exception leaves the scope, so the trace file is valid
/// even for a run that threw halfway. An explicit `path` overrides the
/// recorder's configured destination for this and later sessions.
class TraceSession : RecorderScope<TraceRecorder> {
 public:
  explicit TraceSession(std::string path = {}) {
    if (!path.empty()) TraceRecorder::global().set_output_path(std::move(path));
  }
};

/// RAII span: captures the start timestamp on construction (when the
/// recorder is enabled) and records a complete event on destruction.
class Span {
 public:
  explicit Span(EventKind kind, std::uint64_t arg = 0) noexcept
      : kind_(kind), arg_(arg),
        active_(TraceRecorder::global().enabled()),
        start_(active_ ? now_ticks() : 0) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Update the payload before the span closes (e.g. elements consumed).
  void set_arg(std::uint64_t arg) noexcept { arg_ = arg; }

  /// Close without recording (the phase turned out not to happen).
  void discard() noexcept { active_ = false; }

  ~Span() {
    if (active_) {
      const std::uint64_t end = now_ticks();
      TraceRecorder::global().record(kind_, start_, end - start_, arg_);
    }
  }

 private:
  EventKind kind_;
  std::uint64_t arg_;
  bool active_;
  std::uint64_t start_;
};

/// Record an instant event (fork, steal) with zero duration.
inline void instant(EventKind kind, std::uint64_t arg = 0) {
  TraceRecorder& r = TraceRecorder::global();
  if (r.enabled()) r.record(kind, now_ticks(), 0, arg);
}

#else  // !PLS_OBSERVE

class TraceRecorder {
 public:
  static TraceRecorder& global() {
    static TraceRecorder r;
    return r;
  }
  void enable() noexcept {}
  void disable() noexcept {}
  bool enabled() const noexcept { return false; }
  void record(EventKind, std::uint64_t, std::uint64_t,
              std::uint64_t = 0) noexcept {}
  void record_virtual(EventKind, std::uint32_t, double, double,
                      std::uint64_t = 0) noexcept {}
  void clear() noexcept {}
  void set_output_path(std::string) noexcept {}
  std::string output_path() const { return {}; }
  bool flush() const noexcept { return false; }
  std::vector<TraceEvent> events() const { return {}; }
  std::string chrome_json() const {
    return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}";
  }
};

struct TraceSession {
  explicit TraceSession(std::string = {}) noexcept {}
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;
};

struct Span {
  explicit Span(EventKind, std::uint64_t = 0) noexcept {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_arg(std::uint64_t) noexcept {}
  void discard() noexcept {}
};

inline void instant(EventKind, std::uint64_t = 0) noexcept {}

#endif  // PLS_OBSERVE

}  // namespace pls::observe
