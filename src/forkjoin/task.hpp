// Task representations for the fork-join pool.
//
// Tasks are intrusive: the pool's deques store RawTask pointers and never
// own them. The two concrete kinds are
//   - ChildTask<F>: stack-allocated by invoke_two, the one fork (which
//     streams::split_walk calls at every split node); the spawning frame
//     outlives the task by construction (it joins before returning), so
//     no heap allocation happens on the fork path (Core Guidelines
//     Per.14/Per.15).
//   - HeapTask<F>: heap-allocated for external submissions via
//     ForkJoinPool::run, completion signalled through a promise.
//   - DetachedTask<F>: heap-allocated for fire-and-forget submissions via
//     ForkJoinPool::submit; no promise — completion is the caller's
//     protocol (the service driver counts in-flight batches itself).
#pragma once

#include <atomic>
#include <exception>
#include <future>
#include <type_traits>
#include <utility>

namespace pls::forkjoin {

/// Abstract unit of work executed by pool workers.
class RawTask {
 public:
  virtual ~RawTask() = default;

  /// Run the task body. Must be called exactly once.
  virtual void execute() = 0;

  /// True once execute() finished (including by exception).
  bool is_done() const noexcept {
    return done_.load(std::memory_order_acquire);
  }

 protected:
  void mark_done() noexcept { done_.store(true, std::memory_order_release); }

 private:
  std::atomic<bool> done_{false};
};

/// A forked child whose lifetime is the spawning stack frame.
/// Captures any exception for rethrow at the join point.
template <typename F>
class ChildTask final : public RawTask {
 public:
  explicit ChildTask(F& body) : body_(body) {}

  void execute() override {
    try {
      body_();
    } catch (...) {
      error_ = std::current_exception();
    }
    mark_done();
  }

  /// Rethrow the captured exception, if any. Call after is_done().
  void rethrow_if_failed() {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  F& body_;  // lives in the spawning frame
  std::exception_ptr error_;
};

/// Heap task carrying its result through a promise; used by external
/// submission so the caller can block on a future while workers run.
template <typename F>
class HeapTask final : public RawTask {
 public:
  using result_type = std::invoke_result_t<F&>;

  explicit HeapTask(F body) : body_(std::move(body)) {}

  void execute() override {
    try {
      if constexpr (std::is_void_v<result_type>) {
        body_();
        promise_.set_value();
      } else {
        promise_.set_value(body_());
      }
    } catch (...) {
      promise_.set_exception(std::current_exception());
    }
    mark_done();
    // The submitter owns the future; the task deletes itself once done.
    delete this;
  }

  std::future<result_type> get_future() { return promise_.get_future(); }

 private:
  F body_;
  std::promise<result_type> promise_;
};

/// Fire-and-forget heap task: runs the body, swallows nothing (the body
/// must be noexcept in spirit — an escaping exception terminates, as it
/// would from a detached thread), and deletes itself. Used by
/// ForkJoinPool::submit for externally injected work whose completion is
/// tracked out-of-band by the submitter.
template <typename F>
class DetachedTask final : public RawTask {
 public:
  explicit DetachedTask(F body) : body_(std::move(body)) {}

  void execute() override {
    body_();
    mark_done();
    delete this;
  }

 private:
  F body_;
};

}  // namespace pls::forkjoin
