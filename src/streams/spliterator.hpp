// Spliterator<T>: the traversal-and-partitioning abstraction of the
// streams library (mirrors java.util.Spliterator).
//
// A spliterator walks the elements of a source (try_advance /
// for_each_remaining) and can partition itself (try_split) for parallel
// processing: try_split carves off a *prefix* of the remaining elements as
// a new spliterator, leaving this one with the suffix — exactly Java's
// contract, which the PowerList TieSpliterator and ZipSpliterator
// specialise (see src/powerlist/spliterators.hpp). try_split_n is the
// n-way split Section V of the paper proposes ("a trySplit method that
// returns a set of Spliterators"); sources that cannot split n ways refuse
// it, and the split-tree walk then falls back to try_split.
//
// The interface is virtual by design: the paper's central mechanism is a
// Collector-owned spliterator subclass that performs extra work during the
// splitting phase and mutates shared collector state; that requires runtime
// polymorphism, as in Java. Hot paths traverse whole chunks through
// for_each_remaining, so dispatch cost is per-chunk, not per-element.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "streams/characteristics.hpp"
#include "support/function_ref.hpp"

namespace pls::streams {

/// A strided destination window: element j of a chunk (in the chunk's
/// encounter order) belongs at result position start + j * incr. Windows
/// are reported in the coordinates of the *source* spliterator's own
/// window; the destination-passing evaluator rebases them against the
/// root's window before writing (streams/parallel_eval.hpp).
struct OutputWindow {
  std::uint64_t start = 0;
  std::uint64_t incr = 1;
  std::uint64_t count = 0;
};

/// Mixin interface for spliterators that can name where their elements
/// land in the final result — the enabling contract of the
/// destination-passing collect (docs/execution.md). A SIZED|SUBSIZED
/// windowed spliterator must produce windowed split products whose windows
/// partition the parent's: tie splits hand the prefix the first half of
/// the window (same stride), zip splits hand it the even positions
/// (stride doubled), exactly mirroring how SpliteratorPower2 transforms
/// its (start, incr, count) triple. The pull view of a 1:1 pipeline
/// (streams/fusion.hpp, PipelineSpliterator) names its source's window;
/// sources that cannot name a window return nullopt and collect through
/// the supplier/combiner path.
class WindowedSource {
 public:
  virtual ~WindowedSource() = default;

  /// This spliterator's current destination window, or nullopt when the
  /// source cannot provide one (e.g. a pipeline over a non-windowed
  /// source).
  virtual std::optional<OutputWindow> try_output_window() const = 0;
};

template <typename T>
class Spliterator {
 public:
  using value_type = T;
  /// Per-element action. Non-owning: actions never outlive the call.
  using Action = pls::function_ref<void(const T&)>;

  virtual ~Spliterator() = default;

  /// If an element remains, invoke `action` on it and return true;
  /// otherwise return false.
  virtual bool try_advance(Action action) = 0;

  /// Invoke `action` on every remaining element, sequentially, in
  /// encounter order. Override for bulk traversal (and, per Section V of
  /// the paper, to specialise the *basic case* computation applied to the
  /// sublists where parallel decomposition stopped).
  virtual void for_each_remaining(Action action) {
    while (try_advance(action)) {
    }
  }

  /// Bulk-pull hook for the fused evaluator (streams/fusion.hpp): hand
  /// over the next min(max_n, remaining) elements as one span and mark
  /// them consumed. A source whose remaining elements are contiguous
  /// returns a pointer into its own storage and leaves `scratch` alone
  /// (zero copies). A strided source copies the span into `scratch`,
  /// which holds at least max_n elements, and returns `scratch`; given a
  /// null `scratch` it declines. Declining is {nullptr, 0} (the default),
  /// after which the caller drains the rest through for_each_remaining.
  /// Either way the leaf pays no per-element call at the source seam.
  virtual std::pair<const T*, std::size_t> try_chunk(T* scratch,
                                                     std::size_t max_n) {
    (void)scratch;
    (void)max_n;
    return {nullptr, 0};
  }

  /// Partition off a prefix of the remaining elements as a new
  /// spliterator, or return nullptr when this spliterator cannot or will
  /// not split further.
  virtual std::unique_ptr<Spliterator<T>> try_split() = 0;

  /// Partition off n-1 spliterators that, together with this one (which
  /// keeps the *last* part), cover all remaining elements in encounter
  /// order: returned[0] first, ..., this last. Returns an empty vector,
  /// touching nothing, when the source cannot split n ways — the default.
  virtual std::vector<std::unique_ptr<Spliterator<T>>> try_split_n(
      std::size_t n) {
    (void)n;
    return {};
  }

  /// Estimated number of remaining elements (exact when kSized).
  virtual std::uint64_t estimate_size() const = 0;

  /// Characteristic flags of this spliterator and its elements.
  virtual Characteristics characteristics() const = 0;

  bool has(Characteristics wanted) const {
    return has_characteristics(characteristics(), wanted);
  }
};

/// The destination window of an arbitrary spliterator, or nullopt when it
/// is not a WindowedSource (or cannot currently name one). Used by the
/// destination-passing planner and by the split laws.
template <typename T>
std::optional<OutputWindow> output_window_of(const Spliterator<T>& sp) {
  const auto* w = dynamic_cast<const WindowedSource*>(&sp);
  return w != nullptr ? w->try_output_window() : std::nullopt;
}

}  // namespace pls::streams
