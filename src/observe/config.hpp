// Observability kill switch, clock source, and the recorders' scope rule.
//
// The whole src/observe/ subsystem compiles down to nothing when
// PLS_OBSERVE is 0: counter blocks become empty structs with no-op inline
// members, spans become empty RAII shells, and the recorder exports an
// empty trace. The macro defaults to 1 (observability available, tracing
// still runtime-gated); build with -DPLS_OBSERVE=0 (CMake: -DPLS_OBSERVE=OFF,
// or the `observe-off` preset) for a measurement-free binary. The
// tests/observe/killswitch_test.cpp TU pins the macro to 0 locally and
// asserts the no-op contract, so both sides are covered in every build.
#pragma once

#include <chrono>
#include <cstdint>

#ifndef PLS_OBSERVE
#define PLS_OBSERVE 1
#endif

namespace pls::observe {

/// True when the observability layer is compiled in.
inline constexpr bool kEnabled = (PLS_OBSERVE != 0);

/// Raw timestamp for trace events. On x86-64 this is the TSC (a ~7ns
/// serialising-free read); elsewhere it falls back to steady_clock
/// nanoseconds. Raw ticks are converted to nanoseconds at export time via
/// tick_calibration().
inline std::uint64_t now_ticks() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Nanoseconds per tick of now_ticks(). Calibrated once per process by
/// sampling the TSC against steady_clock over a short interval; exactly
/// 1.0 on the steady_clock fallback path.
inline double ns_per_tick() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  static const double ratio = [] {
    const auto wall0 = std::chrono::steady_clock::now();
    const std::uint64_t tsc0 = now_ticks();
    // Busy-sample for ~2ms: long enough for a <1% calibration, short
    // enough to be invisible (runs once, lazily, at first export).
    const auto deadline = wall0 + std::chrono::milliseconds(2);
    while (std::chrono::steady_clock::now() < deadline) {
    }
    const std::uint64_t tsc1 = now_ticks();
    const auto wall1 = std::chrono::steady_clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(wall1 - wall0)
            .count());
    const double ticks = static_cast<double>(tsc1 - tsc0);
    return ticks > 0.0 ? ns / ticks : 1.0;
  }();
  return ratio;
#else
  return 1.0;
#endif
}

/// Wall-clock milliseconds since an arbitrary per-process epoch
/// (steady_clock). Used to timestamp telemetry samples and run records —
/// unlike now_ticks() it needs no calibration and is comparable across
/// threads without a scale factor.
inline double steady_now_ms() noexcept {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1e6;
}

/// The one scope rule of the process-global recorders (TraceSession,
/// ProfileSession): a scope that finds its recorder off clears it, turns
/// it on, and on exit (unwinding included) turns it off and flushes it; a
/// scope that finds it already on leaves it alone, so an inner scope
/// keeps everything the outer one records.
template <typename Recorder>
class RecorderScope {
 public:
  RecorderScope() : owned_(!Recorder::global().enabled()) {
    if (owned_) {
      Recorder::global().clear();
      Recorder::global().enable();
    }
  }
  RecorderScope(const RecorderScope&) = delete;
  RecorderScope& operator=(const RecorderScope&) = delete;
  ~RecorderScope() {
    if (!owned_) return;
    Recorder& r = Recorder::global();
    r.disable();
    if constexpr (requires { r.flush(); }) r.flush();
  }

 private:
  bool owned_;
};

}  // namespace pls::observe
