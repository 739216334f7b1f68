// Pipeline fusion: a Stream IS a FusedPipeline — its source spliterator
// plus the ordered chain of StageNode descriptors its intermediate ops
// appended — so a terminal composes one Sink chain per leaf and runs a
// single tight push loop (docs/execution.md, "Pipeline fusion"), the way
// Java's AbstractPipeline composes opWrapSink.
//
// Each StageNode states its op's facts once: the sink it wraps around a
// downstream, whether it cancels (limit/take_while) or carries
// traversal-wide state (distinct/drop_while), whether it maps 1:1, and
// what it does to the characteristics and size estimate of the elements
// passing through — Stream::characteristics() and estimate_size() fold
// those over the chain.
//
// Splitting a FusedPipeline splits the source and shares the stage chain,
// so the parallel tree walks fork fused leaves. Chains containing a
// cancelling stage refuse to split and always run the element-mode
// driver, preserving short-circuit consumption depth. Stateful chains
// also refuse to split, but keep the chunked transport within their
// single leaf.
//
// Where a Spliterator<T> view of a pipeline is still needed (concat's
// parts, sorted's upstream), into_spliterator() hands back a stage-free
// pipeline's own source and wraps any other in PipelineSpliterator, the
// one pull adapter (Java's WrappingSpliterator).
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
/// concrete templates below carry the shared operator and know how to
/// wrap a downstream sink; the type-erased face is what FusedPipeline
/// stores and what chain assembly walks — one virtual wrap_sink per stage
/// per leaf, never per element.
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
  /// seen-set, drop_while's prefix flag): the chain must be driven by
  /// exactly one leaf — split products would each start from fresh state
  /// — but may still use the chunked transport.
  virtual bool stateful() const noexcept { return false; }

  /// True when the stage maps elements 1:1 (map / peek) — the property
  /// that keeps destination windows meaningful through the chain.
  virtual bool one_to_one() const noexcept { return true; }

  /// The characteristics of this stage's output, given its input's.
  virtual Characteristics characteristics(
      Characteristics upstream) const noexcept {
    return upstream;
  }

  /// The estimated size of this stage's output, given its input's; exact
  /// whenever characteristics() keeps kSized.
  virtual std::uint64_t estimate_size(std::uint64_t upstream) const noexcept {
    return upstream;
  }
};

/// A source spliterator (of a hidden element type) plus the stage chain,
/// ready to drive sink chains. Output element type is
/// stages.back().output_type(); evaluate() and PipelineSpliterator check
/// it against the element type they read.
class FusedPipeline {
 public:
  virtual ~FusedPipeline() = default;

  /// Remaining source elements (exact when the source is SIZED).
  virtual std::uint64_t estimate_size() const = 0;

  virtual Characteristics source_characteristics() const = 0;

  /// Whether the source reports all of `wanted`'s characteristics.
  bool source_has(Characteristics wanted) const {
    return has_characteristics(source_characteristics(), wanted);
  }

  /// The source's destination window, if it names one (split products
  /// inherit it from their source).
  virtual std::optional<OutputWindow> source_window() const = 0;

  /// Split off a prefix pipeline sharing this stage chain, or nullptr
  /// (always nullptr for cancelling and stateful chains).
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

  /// Push the next source element through the chain into `terminal`,
  /// which must be the same sink on every call — the pull adapter's
  /// fillBuffer step. The first call begins the chain; once the source is
  /// exhausted or the chain cancels, ends it and returns false.
  virtual bool drive_step(SinkControl& terminal) = 0;

  virtual const std::type_info& output_type() const noexcept = 0;

  /// Append the next stage of the chain (source side first). Checks the
  /// element-type seam.
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

  /// Number of stages in the chain (the planner's stage summary).
  std::size_t stage_count() const noexcept { return stages().size(); }

  /// The output's characteristics: the source's, folded through every
  /// stage.
  Characteristics characteristics() const {
    Characteristics c = source_characteristics();
    for (const auto& s : stages()) c = s->characteristics(c);
    return c;
  }

  /// The output's size estimate: the source's, folded through every stage
  /// (exact when characteristics() has kSized).
  std::uint64_t output_estimate() const {
    std::uint64_t n = estimate_size();
    for (const auto& s : stages()) n = s->estimate_size(n);
    return n;
  }

  /// The element count a leaf reports to the observe counters: the output
  /// estimate when it is exact, 0 otherwise.
  std::uint64_t countable_estimate() const {
    return has_characteristics(characteristics(), kSized) ? output_estimate()
                                                          : 0;
  }

 protected:
  virtual const std::vector<std::shared_ptr<const StageNode>>& stages()
      const noexcept = 0;

  bool cancels_ = false;
  bool one_to_one_ = true;
  bool stateful_ = false;
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

  Characteristics source_characteristics() const override {
    return source_->characteristics();
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

  bool drive_step(SinkControl& terminal) override {
    if (step_head_ == nullptr) {
      PLS_CHECK(!driven_, "fused pipeline already driven");
      driven_ = true;
      step_head_ = &open_chain(terminal, step_chain_);
    }
    if (step_ended_) return false;
    if (!step_head_->cancellation_requested() &&
        source_->try_advance([&](const S& v) { step_head_->accept(v); })) {
      return true;
    }
    step_head_->end();
    step_ended_ = true;
    return false;
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

  /// Hand the source back: a stage-free pipeline's pull view is its own
  /// source (into_spliterator).
  std::unique_ptr<Spliterator<S>> release_source() {
    PLS_CHECK(stages_.empty() && !driven_,
              "only an undriven stage-free pipeline releases its source");
    return std::move(source_);
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

  /// Compose the sink chain back-to-front into `owned` — terminal first,
  /// then each stage outermost-in, one virtual wrap_sink per stage per
  /// leaf — and begin it. The head consumes the source element type S: it
  /// is the innermost stage's sink or (stage-free chain) the terminal
  /// itself, whose element type the caller checked against
  /// output_type().
  Sink<S>& open_chain(SinkControl& terminal,
                      std::vector<std::unique_ptr<SinkControl>>& owned) {
    owned.reserve(stages_.size());
    SinkControl* down = &terminal;
    for (std::size_t i = stages_.size(); i-- > 0;) {
      owned.push_back(stages_[i]->wrap_sink(*down));
      down = owned.back().get();
    }
    auto& head = static_cast<Sink<S>&>(*down);
    head.begin(source_->has(kSized) ? source_->estimate_size()
                                    : kUnknownSinkSize);
    return head;
  }

  void run_drive(SinkControl& terminal, bool element_mode) {
    PLS_CHECK(!driven_,
              "fused pipeline already driven; call reset() between drives");
    driven_ = true;
    std::vector<std::unique_ptr<SinkControl>> owned;
    Sink<S>& head = open_chain(terminal, owned);
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
  // The sink chain drive_step keeps open between calls.
  std::vector<std::unique_ptr<SinkControl>> step_chain_;
  Sink<S>* step_head_ = nullptr;
  bool step_ended_ = false;
};

/// A stage-free fused pipeline over `sp` (consumed) — how every stream,
/// service session and multiway collect starts. Any spliterator
/// qualifies: drive_bulk takes contiguous chunks when the source offers
/// them and otherwise buffers for_each_remaining into kFusionChunk
/// batches.
template <typename T>
std::unique_ptr<FusedPipeline> fuse_source(
    std::unique_ptr<Spliterator<T>> sp) {
  return std::make_unique<FusedPipelineImpl<T>>(std::move(sp));
}

/// The pull view of a pipeline with stages, whose output type is T.
/// Splitting splits the pipeline; for_each_remaining drives its sink
/// chain in one push loop; try_advance pushes one source element at a
/// time through the chain into a buffer until something arrives (Java's
/// WrappingSpliterator.fillBuffer), so a short-circuiting reader pulls
/// the source exactly as deep as a fused drive would. Once stepping has
/// begun the chain holds state and buffered elements, so it no longer
/// splits. A 1:1 chain names its source's destination window.
template <typename T>
class PipelineSpliterator final : public Spliterator<T>,
                                  public WindowedSource {
 public:
  using Action = typename Spliterator<T>::Action;

  explicit PipelineSpliterator(std::unique_ptr<FusedPipeline> fp)
      : fp_(std::move(fp)) {
    PLS_CHECK(fp_ != nullptr && fp_->output_type() == typeid(T),
              "pipeline spliterator type does not match the pipeline");
  }

  bool try_advance(Action action) override {
    while (next_ == buffer_.size()) {
      if (drained_) return false;
      buffer_.clear();
      next_ = 0;
      stepped_ = true;
      drained_ = !fp_->drive_step(buffer_sink_);
    }
    action(buffer_[next_++]);
    return true;
  }

  void for_each_remaining(Action action) override {
    if (stepped_ || drained_) {
      Spliterator<T>::for_each_remaining(action);
      return;
    }
    drained_ = true;
    ActionSink sink(action);
    fp_->drive(sink);
  }

  std::unique_ptr<Spliterator<T>> try_split() override {
    if (stepped_ || drained_) return nullptr;
    auto prefix = fp_->try_split();
    if (!prefix) return nullptr;
    return std::make_unique<PipelineSpliterator<T>>(std::move(prefix));
  }

  std::vector<std::unique_ptr<Spliterator<T>>> try_split_n(
      std::size_t n) override {
    std::vector<std::unique_ptr<Spliterator<T>>> out;
    if (stepped_ || drained_) return out;
    for (auto& part : fp_->try_split_n(n)) {
      out.push_back(std::make_unique<PipelineSpliterator<T>>(std::move(part)));
    }
    return out;
  }

  std::uint64_t estimate_size() const override {
    const std::uint64_t buffered = buffer_.size() - next_;
    return drained_ ? buffered : fp_->output_estimate() + buffered;
  }

  Characteristics characteristics() const override {
    return fp_->characteristics();
  }

  std::optional<OutputWindow> try_output_window() const override {
    if (!fp_->one_to_one()) return std::nullopt;
    return fp_->source_window();
  }

 private:
  class BufferSink final : public Sink<T> {
   public:
    explicit BufferSink(std::vector<T>& out) : out_(out) {}
    void accept(const T& value) override { out_.push_back(value); }

   private:
    std::vector<T>& out_;
  };

  class ActionSink final : public Sink<T> {
   public:
    explicit ActionSink(Action action) : action_(action) {}
    void accept(const T& value) override { action_(value); }

   private:
    Action action_;
  };

  std::unique_ptr<FusedPipeline> fp_;
  std::vector<T> buffer_;
  std::size_t next_ = 0;
  BufferSink buffer_sink_{buffer_};
  bool stepped_ = false;
  bool drained_ = false;
};

/// A Spliterator<T> over pipeline `fp` (output type T): a stage-free
/// pipeline hands back its own source — so concat of plain sources keeps
/// their zero-copy try_chunk — and any other gets the pull adapter.
template <typename T>
std::unique_ptr<Spliterator<T>> into_spliterator(
    std::unique_ptr<FusedPipeline> fp) {
  if (fp->stage_count() == 0) {
    auto* bare = dynamic_cast<FusedPipelineImpl<T>*>(fp.get());
    PLS_CHECK(bare != nullptr, "pipeline source type does not match");
    return bare->release_source();
  }
  return std::make_unique<PipelineSpliterator<T>>(std::move(fp));
}

// ---- stage descriptors ----------------------------------------------

/// The element-type seam every stage states.
template <typename In, typename Out>
class TypedStage : public StageNode {
 public:
  const std::type_info& input_type() const noexcept override {
    return typeid(In);
  }
  const std::type_info& output_type() const noexcept override {
    return typeid(Out);
  }
};

/// Stages that drop elements lose exact sizing (and the power-of-two
/// count that rides on it).
inline constexpr Characteristics kSizeFacts = kSized | kSubsized | kPower2;

/// skip + limit. Keeps kSized: the sliced count follows from the
/// upstream's.
template <typename T>
class SliceStage final : public TypedStage<T, T> {
 public:
  SliceStage(std::uint64_t skip, std::uint64_t limit)
      : skip_(skip), limit_(limit) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<SliceSink<T>>(skip_, limit_,
                                          static_cast<Sink<T>&>(downstream));
  }
  bool cancels() const noexcept override { return true; }
  bool one_to_one() const noexcept override { return false; }
  Characteristics characteristics(Characteristics c) const noexcept override {
    return c & ~(kSubsized | kPower2);
  }
  std::uint64_t estimate_size(std::uint64_t n) const noexcept override {
    const std::uint64_t after_skip = n > skip_ ? n - skip_ : 0;
    return after_skip < limit_ ? after_skip : limit_;
  }

 private:
  std::uint64_t skip_;
  std::uint64_t limit_;
};

template <typename T>
class DistinctStage final : public TypedStage<T, T> {
 public:
  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<DistinctSink<T>>(
        static_cast<Sink<T>&>(downstream));
  }
  bool one_to_one() const noexcept override { return false; }
  bool stateful() const noexcept override { return true; }
  Characteristics characteristics(Characteristics c) const noexcept override {
    return (c & ~kSizeFacts) | kDistinct;
  }
};

template <typename T, typename Pred>
class TakeWhileStage final : public TypedStage<T, T> {
 public:
  explicit TakeWhileStage(std::shared_ptr<const Pred> pred)
      : pred_(std::move(pred)) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<TakeWhileSink<T, Pred>>(
        pred_, static_cast<Sink<T>&>(downstream));
  }
  bool cancels() const noexcept override { return true; }
  bool one_to_one() const noexcept override { return false; }
  Characteristics characteristics(Characteristics c) const noexcept override {
    return c & ~kSizeFacts;
  }

 private:
  std::shared_ptr<const Pred> pred_;
};

/// drop_while: stateful, like Java's — which prefix to drop is a fact of
/// the whole traversal, so the chain runs as one leaf.
template <typename T, typename Pred>
class DropWhileStage final : public TypedStage<T, T> {
 public:
  explicit DropWhileStage(std::shared_ptr<const Pred> pred)
      : pred_(std::move(pred)) {}

  std::unique_ptr<SinkControl> wrap_sink(
      SinkControl& downstream) const override {
    return std::make_unique<DropWhileSink<T, Pred>>(
        pred_, static_cast<Sink<T>&>(downstream));
  }
  bool stateful() const noexcept override { return true; }
  bool one_to_one() const noexcept override { return false; }
  Characteristics characteristics(Characteristics c) const noexcept override {
    return c & ~kSizeFacts;
  }

 private:
  std::shared_ptr<const Pred> pred_;
};

}  // namespace pls::streams
