// fuse(): strip a wrapper-spliterator pipeline into a FusedPipeline —
// the owned source spliterator plus the ordered stage chain — so terminal
// evaluation can compose one Sink chain per leaf and run a single tight
// push loop (docs/execution.md, "Pipeline fusion").
//
// The stream still *builds* the wrapper chain (splitting, characteristics
// and introspection are unchanged); fusion happens once, at terminal
// evaluation, by walking the wrappers outermost-in through the
// FusableStage mixin. Each fusable wrapper contributes an immutable
// StageNode descriptor and hands over its upstream. The walk stops at the
// first layer that is not a FusableStage (a concat, an iterate tail, a
// drop_while, any plain source) or whose strip refuses (a half-consumed
// flat_map); that layer becomes the fused pipeline's source, and
// FusedPipelineImpl is the pull-to-push adapter that drives it. Fusion
// therefore never fails: every terminal runs one sink chain per leaf.
// sorted is special: it materialises its buffer and restarts the fusion
// walk on it as a fresh windowed array source, so everything *downstream*
// of the buffer point still fuses.
//
// Splitting a FusedPipeline splits the source and shares the stage chain,
// so the parallel tree walks fork fused leaves exactly where they forked
// wrapper leaves. Chains containing a cancelling stage (limit/take_while)
// refuse to split — their wrappers did too — and always run the
// element-mode driver, preserving short-circuit consumption depth.
// Stateful chains (distinct) also refuse to split, but keep the chunked
// transport within their single leaf.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "streams/sink.hpp"
#include "streams/spliterator.hpp"
#include "support/assert.hpp"

namespace pls::streams {

/// Immutable, type-erased descriptor of one intermediate operation. The
/// concrete templates below carry the operator (shared with the wrapper
/// spliterators) and know how to wrap a downstream sink; the type-erased
/// face is what FusedPipeline stores and what chain assembly walks —
/// one virtual wrap_sink per stage per leaf, never per element.
class StageNode {
 public:
  virtual ~StageNode() = default;

  /// Wrap `downstream` (a Sink of this stage's output type) into a sink of
  /// this stage's input type. Chain typing is enforced at append time via
  /// input_type()/output_type(), so the static_cast inside is sound.
  virtual std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const = 0;

  virtual const std::type_info& input_type() const noexcept = 0;
  virtual const std::type_info& output_type() const noexcept = 0;

  /// True for short-circuit stages (limit / take_while): the chain must
  /// run element-mode with cancellation checks and never split.
  virtual bool cancels() const noexcept { return false; }

  /// True for stages whose sink carries traversal-wide state (distinct's
  /// seen-set): the chain must be driven by exactly one leaf — split
  /// products would each dedup against their own empty set — but may
  /// still use the chunked transport.
  virtual bool stateful() const noexcept { return false; }

  /// True when the stage maps elements 1:1 (map / peek) — the property
  /// that keeps destination windows meaningful through the chain.
  virtual bool one_to_one() const noexcept { return true; }

  /// How the stage transforms a known upstream element count; returns
  /// kUnknownSinkSize when the result count cannot be known (filter,
  /// take_while). Mirrors what the wrapper reported through kSized /
  /// estimate_size, so fused leaves feed the observe counters the same
  /// element totals the wrapper leaves did.
  virtual std::uint64_t transform_count(std::uint64_t count) const noexcept {
    return count;
  }
};

/// A stripped pipeline: the source spliterator (of a hidden element type)
/// plus the stage chain, ready to drive sink chains. Output element type
/// is stages.back().output_type() — verified against the terminal's T by
/// fuse_pipeline, which is the only way these are made.
class FusedPipeline {
 public:
  virtual ~FusedPipeline() = default;

  /// Remaining source elements (exact when the source is SIZED).
  virtual std::uint64_t estimate_size() const = 0;

  /// Whether the source reports all of `wanted`'s characteristics.
  virtual bool source_has(Characteristics wanted) const = 0;

  /// The source's destination window, if it names one (split products
  /// inherit it from their source).
  virtual std::optional<OutputWindow> source_window() const = 0;

  /// Split off a prefix pipeline sharing this stage chain, or nullptr
  /// (always nullptr for cancelling chains).
  virtual std::unique_ptr<FusedPipeline> try_split() = 0;

  /// Split off n-1 prefix pipelines (encounter order, this keeps the last
  /// part) through the source's try_split_n, or return an empty vector.
  virtual std::vector<std::unique_ptr<FusedPipeline>> try_split_n(
      std::size_t n) = 0;

  /// Push every remaining source element through the composed sink chain
  /// into `terminal` (a Sink of the pipeline's output type). Calls
  /// begin/end; uses the chunked transport unless the chain cancels.
  virtual void drive(SinkControl& terminal) = 0;

  /// Like drive(), but always element-mode with a cancellation check
  /// between source elements, regardless of whether any *stage* cancels —
  /// for short-circuit terminals (any/all/none_match, find_first), whose
  /// cancellation signal lives in the terminal sink itself.
  virtual void drive_short_circuit(SinkControl& terminal) = 0;

  virtual const std::type_info& output_type() const noexcept = 0;

  /// Append the next-outer stage (fusion walks outermost-in, so stages
  /// arrive source-side first). Checks the element-type seam.
  virtual void append_stage(std::shared_ptr<const StageNode> stage) = 0;

  /// Re-arm the chain for another drive. Batch terminals drive a pipeline
  /// exactly once; the service layer (src/service/) plans a chain once per
  /// session and drives it once per micro-batch, so the source must be a
  /// ReusableSource and the chain must be re-armed between drives.
  /// PLS_CHECKs that the chain is resettable: no cancelling stage (a
  /// short-circuited chain has consumed an unknowable prefix), the
  /// previous drive did not end cancelled (accidental reuse of a
  /// cancelled chain is a bug, not a retry), and the source opts in via
  /// ReusableSource.
  virtual void reset() = 0;

  bool cancels() const noexcept { return cancels_; }
  bool one_to_one() const noexcept { return one_to_one_; }
  bool stateful() const noexcept { return stateful_; }

  /// Number of stripped stages in the chain (the planner's stage summary).
  std::size_t stage_count() const noexcept { return stages().size(); }

  /// The element count a leaf reports to the observe counters: the
  /// source size folded through every stage — what the outermost wrapper
  /// reports as its SIZED estimate — or 0 when the source is not SIZED or
  /// a stage makes the count unknowable.
  std::uint64_t countable_estimate() const {
    if (!source_has(kSized)) return 0;
    std::uint64_t n = estimate_size();
    for (const auto& s : stages()) {
      if (n == kUnknownSinkSize) break;
      n = s->transform_count(n);
    }
    return n == kUnknownSinkSize ? 0 : n;
  }

 protected:
  virtual const std::vector<std::shared_ptr<const StageNode>>& stages()
      const noexcept = 0;

  bool cancels_ = false;
  bool one_to_one_ = true;
  bool stateful_ = false;
};

/// Mixin for wrapper spliterators that can dissolve into a fused stage.
/// strip_into_fused() fuses the upstream (which always succeeds, see
/// fuse_pipeline) and appends this wrapper's stage, or returns nullptr
/// with nothing consumed when this wrapper cannot dissolve right now —
/// the fuse step then adopts the wrapper itself as the source.
class FusableStage {
 public:
  virtual ~FusableStage() = default;
  virtual std::unique_ptr<FusedPipeline> strip_into_fused() = 0;
};

/// Mixin for spliterators that can be driven more than once. A source
/// implementing this promises that rearm() restores it to "everything
/// remaining" — either over the same bound data or over data freshly
/// bound between drives (the service layer's BatchSpliterator rebinds a
/// new micro-batch before each rearm). FusedPipeline::reset() requires
/// the source to implement this; ordinary one-shot sources never do.
class ReusableSource {
 public:
  virtual ~ReusableSource() = default;
  virtual void rearm() = 0;
};

template <typename S>
class FusedPipelineImpl final : public FusedPipeline {
 public:
  explicit FusedPipelineImpl(std::unique_ptr<Spliterator<S>> source)
      : source_(std::move(source)) {
    PLS_CHECK(source_ != nullptr, "fused pipeline requires a source");
  }

  std::uint64_t estimate_size() const override {
    return source_->estimate_size();
  }

  bool source_has(Characteristics wanted) const override {
    return source_->has(wanted);
  }

  std::optional<OutputWindow> source_window() const override {
    return output_window_of(*source_);
  }

  std::unique_ptr<FusedPipeline> try_split() override {
    if (cancels_ || stateful_) return nullptr;
    auto prefix = source_->try_split();
    if (!prefix) return nullptr;
    return sharing_chain(std::move(prefix));
  }

  std::vector<std::unique_ptr<FusedPipeline>> try_split_n(
      std::size_t n) override {
    std::vector<std::unique_ptr<FusedPipeline>> out;
    if (cancels_ || stateful_) return out;
    auto parts = source_->try_split_n(n);
    out.reserve(parts.size());
    for (auto& part : parts) out.push_back(sharing_chain(std::move(part)));
    return out;
  }

  const std::type_info& output_type() const noexcept override {
    return stages_.empty() ? typeid(S) : stages_.back()->output_type();
  }

  void append_stage(std::shared_ptr<const StageNode> stage) override {
    PLS_CHECK(stage != nullptr, "null fusion stage");
    PLS_CHECK(stage->input_type() == output_type(),
              "fusion stage input does not match chain output");
    cancels_ = cancels_ || stage->cancels();
    one_to_one_ = one_to_one_ && stage->one_to_one();
    stateful_ = stateful_ || stage->stateful();
    stages_.push_back(std::move(stage));
  }

  void drive(SinkControl& terminal) override {
    run_drive(terminal, /*element_mode=*/cancels_);
  }

  void drive_short_circuit(SinkControl& terminal) override {
    run_drive(terminal, /*element_mode=*/true);
  }

  void reset() override {
    PLS_CHECK(!cancels_,
              "cannot reset a fused pipeline with a cancelling stage "
              "(limit/take_while chains are single-drive)");
    PLS_CHECK(!last_drive_cancelled_,
              "cannot reset a fused pipeline whose last drive was "
              "cancelled (the source was left partially consumed)");
    auto* reusable = dynamic_cast<ReusableSource*>(source_.get());
    PLS_CHECK(reusable != nullptr,
              "fused pipeline source is not reusable (ReusableSource)");
    reusable->rearm();
    driven_ = false;
  }

 private:
  /// A split product of the source, wrapped in a pipeline that shares
  /// this stage chain.
  std::unique_ptr<FusedPipeline> sharing_chain(
      std::unique_ptr<Spliterator<S>> part) const {
    auto out = std::make_unique<FusedPipelineImpl<S>>(std::move(part));
    out->stages_ = stages_;
    out->cancels_ = cancels_;
    out->one_to_one_ = one_to_one_;
    out->stateful_ = stateful_;
    return out;
  }

  void run_drive(SinkControl& terminal, bool element_mode) {
    PLS_CHECK(!driven_,
              "fused pipeline already driven; call reset() between drives");
    driven_ = true;
    // Compose the sink chain back-to-front: terminal first, then each
    // stage outermost-in. One virtual wrap_sink per stage per leaf.
    std::vector<std::unique_ptr<SinkControl>> owned;
    owned.reserve(stages_.size());
    SinkControl* down = &terminal;
    for (std::size_t i = stages_.size(); i-- > 0;) {
      owned.push_back(stages_[i]->wrap_sink(*down));
      down = owned.back().get();
    }
    // `down` now consumes the source element type S: it is either the
    // innermost stage's sink or (stage-free chain) the terminal itself,
    // whose element type fuse_pipeline verified to be S.
    auto& head = static_cast<Sink<S>&>(*down);
    head.begin(source_->has(kSized) ? source_->estimate_size()
                                    : kUnknownSinkSize);
    if (element_mode) {
      drive_cancellable(head);
    } else {
      drive_bulk(head);
    }
    head.end();
    last_drive_cancelled_ = head.cancellation_requested();
  }

  /// Element-mode with a cancellation check between elements: consumes
  /// exactly as deep into the source as the chain's semantics demand.
  void drive_cancellable(Sink<S>& head) {
    while (!head.cancellation_requested() &&
           source_->try_advance([&](const S& v) { head.accept(v); })) {
    }
  }

  /// Chunked transport, one scratch buffer of kFusionChunk elements per
  /// drive. Contiguous sources hand whole spans of their own storage
  /// straight into the chain (zero copies); strided sources then gather
  /// kFusionChunk windows into the scratch (one copy, no per-element
  /// call); computed sources batch for_each_remaining through the same
  /// scratch at one indirect call per element. Elements that cannot sit
  /// in a scratch buffer get the zero-copy spans, then element pushes.
  void drive_bulk(Sink<S>& head) {
    const auto pump = [&](S* scratch, std::size_t max_n) {
      for (;;) {
        const auto [p, n] = source_->try_chunk(scratch, max_n);
        if (p == nullptr) return;
        head.accept_chunk(p, n);
      }
    };
    pump(nullptr, ~std::size_t{0});
    if constexpr (std::is_default_constructible_v<S> &&
                  std::is_copy_assignable_v<S>) {
      const auto scratch = std::make_unique_for_overwrite<S[]>(kFusionChunk);
      pump(scratch.get(), kFusionChunk);
      std::size_t k = 0;
      source_->for_each_remaining([&](const S& v) {
        scratch[k++] = v;
        if (k == kFusionChunk) {
          head.accept_chunk(scratch.get(), k);
          k = 0;
        }
      });
      if (k != 0) head.accept_chunk(scratch.get(), k);
    } else {
      source_->for_each_remaining([&](const S& v) { head.accept(v); });
    }
  }

  const std::vector<std::shared_ptr<const StageNode>>& stages()
      const noexcept override {
    return stages_;
  }

  std::unique_ptr<Spliterator<S>> source_;
  std::vector<std::shared_ptr<const StageNode>> stages_;
  bool driven_ = false;
  bool last_drive_cancelled_ = false;
};

// ---- stage descriptors ----------------------------------------------

template <typename Out, typename In, typename Fn>
class MapStage final : public StageNode {
 public:
  explicit MapStage(std::shared_ptr<const Fn> fn) : fn_(std::move(fn)) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<MapSink<In, Out, Fn>>(
        fn_, static_cast<Sink<Out>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(In);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(Out);
  }

 private:
  std::shared_ptr<const Fn> fn_;
};

template <typename T, typename Pred>
class FilterStage final : public StageNode {
 public:
  explicit FilterStage(std::shared_ptr<const Pred> pred)
      : pred_(std::move(pred)) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<FilterSink<T, Pred>>(
        pred_, static_cast<Sink<T>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(T);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(T);
  }
  bool one_to_one() const noexcept override { return false; }
  std::uint64_t transform_count(std::uint64_t) const noexcept override {
    return kUnknownSinkSize;
  }

 private:
  std::shared_ptr<const Pred> pred_;
};

template <typename T, typename Fn>
class PeekStage final : public StageNode {
 public:
  explicit PeekStage(std::shared_ptr<const Fn> observer)
      : observer_(std::move(observer)) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<PeekSink<T, Fn>>(
        observer_, static_cast<Sink<T>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(T);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(T);
  }

 private:
  std::shared_ptr<const Fn> observer_;
};

template <typename T>
class SliceStage final : public StageNode {
 public:
  SliceStage(std::uint64_t skip, std::uint64_t limit)
      : skip_(skip), limit_(limit) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<SliceSink<T>>(skip_, limit_,
                                          static_cast<Sink<T>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(T);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(T);
  }
  bool cancels() const noexcept override { return true; }
  bool one_to_one() const noexcept override { return false; }
  std::uint64_t transform_count(std::uint64_t count) const noexcept override {
    // Matches SliceSpliterator::estimate_size (the wrapper keeps kSized).
    const std::uint64_t after_skip = count > skip_ ? count - skip_ : 0;
    return after_skip < limit_ ? after_skip : limit_;
  }

 private:
  std::uint64_t skip_;
  std::uint64_t limit_;
};

template <typename Out, typename In, typename Fn>
class FlatMapStage final : public StageNode {
 public:
  explicit FlatMapStage(std::shared_ptr<const Fn> fn) : fn_(std::move(fn)) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<FlatMapSink<In, Out, Fn>>(
        fn_, static_cast<Sink<Out>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(In);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(Out);
  }
  bool one_to_one() const noexcept override { return false; }
  std::uint64_t transform_count(std::uint64_t) const noexcept override {
    // Fan-out per element is arbitrary; the wrapper dropped kSized too.
    return kUnknownSinkSize;
  }

 private:
  std::shared_ptr<const Fn> fn_;
};

template <typename T>
class DistinctStage final : public StageNode {
 public:
  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<DistinctSink<T>>(static_cast<Sink<T>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(T);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(T);
  }
  bool one_to_one() const noexcept override { return false; }
  bool stateful() const noexcept override { return true; }
  std::uint64_t transform_count(std::uint64_t) const noexcept override {
    return kUnknownSinkSize;
  }
};

template <typename T, typename Pred>
class TakeWhileStage final : public StageNode {
 public:
  explicit TakeWhileStage(std::shared_ptr<const Pred> pred)
      : pred_(std::move(pred)) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<TakeWhileSink<T, Pred>>(
        pred_, static_cast<Sink<T>&>(downstream));
  }

  const std::type_info& input_type() const noexcept override {
    return typeid(T);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(T);
  }
  bool cancels() const noexcept override { return true; }
  bool one_to_one() const noexcept override { return false; }
  std::uint64_t transform_count(std::uint64_t) const noexcept override {
    return kUnknownSinkSize;
  }

 private:
  std::shared_ptr<const Pred> pred_;
};

// The fuse step itself — fuse_source / fuse_pipeline, i.e. the admission
// *decisions* — lives in streams/plan.hpp with every other admission
// predicate; this header keeps only the mechanism (stages, pipelines,
// the drive loops).

}  // namespace pls::streams
