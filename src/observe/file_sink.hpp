// The output file of a process-global exporter (TraceRecorder's chrome
// trace, MetricsLog's JSONL log): the destination path, initialised from
// an environment variable and replaceable with set_path(); a process-exit
// flush, registered once however often it is armed; and a whole-file
// write that reports failure only after the bytes have left the stream's
// buffer, so a write the kernel refuses at close (a full disk) is seen.
#pragma once

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>

namespace pls::observe {

class FileSink {
 public:
  explicit FileSink(const char* env_var) {
    if (const char* env = std::getenv(env_var)) path_ = env;
  }

  /// Destination for write(); empty disables file output.
  void set_path(std::string path) {
    std::lock_guard<std::mutex> lock(mutex_);
    path_ = std::move(path);
  }

  std::string path() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return path_;
  }

  /// Register `flush` to run at process exit; only the first call does.
  void arm_at_exit(void (*flush)()) {
    bool expected = false;
    if (armed_.compare_exchange_strong(expected, true)) std::atexit(flush);
  }

  /// Replace the file with `render()`, which is called only when a path
  /// is set. Writes nothing (an existing file is kept) when there is no
  /// path or the rendering is empty. Returns whether the whole file was
  /// written: the stream is closed before it is checked.
  template <typename Render>
  bool write(Render&& render) const {
    const std::string path = this->path();
    if (path.empty()) return false;
    const std::string text = render();
    if (text.empty()) return false;
    std::ofstream out(path);
    out << text;
    out.close();
    return !out.fail();
  }

 private:
  std::atomic<bool> armed_{false};
  mutable std::mutex mutex_;
  std::string path_;
};

}  // namespace pls::observe
