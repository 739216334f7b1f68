// Span recorder: runtime gating, event well-formedness, the chrome-trace
// JSON export (validated by a small JSON parser — the schema must
// round-trip), and the simulated machine emitting the same schema.
#include "observe/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "simmachine/costmodel.hpp"
#include "simmachine/scheduler.hpp"
#include "simmachine/trace.hpp"

namespace {

using pls::observe::EventKind;
using pls::observe::kEnabled;
using pls::observe::Span;
using pls::observe::TraceRecorder;

/// Minimal recursive-descent JSON validator: returns true iff the input
/// is one well-formed JSON value (enough to prove the exporter cannot
/// emit trailing commas, unquoted keys, or unbalanced structure).
class JsonValidator {
 public:
  static bool valid(const std::string& s) {
    JsonValidator v(s);
    v.skip_ws();
    if (!v.value()) return false;
    v.skip_ws();
    return v.pos_ == s.size();
  }

 private:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::global().disable();
    TraceRecorder::global().clear();
  }
  void TearDown() override {
    TraceRecorder::global().disable();
    TraceRecorder::global().clear();
  }
};

TEST_F(TraceTest, DisabledRecorderRecordsNothing) {
  {
    Span s(EventKind::kSplit, 42);
  }
  pls::observe::instant(EventKind::kSteal);
  EXPECT_TRUE(TraceRecorder::global().events().empty());
}

TEST_F(TraceTest, SpansBecomeEvents) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  TraceRecorder::global().enable();
  {
    Span outer(EventKind::kSplit, 7);
    Span inner(EventKind::kAccumulate, 100);
  }
  pls::observe::instant(EventKind::kFork);
  TraceRecorder::global().disable();

  const auto events = TraceRecorder::global().events();
  ASSERT_EQ(events.size(), 3u);
  std::size_t splits = 0, accumulates = 0, forks = 0;
  for (const auto& e : events) {
    EXPECT_EQ(e.pid, 0u);
    EXPECT_GE(e.start_ns, 0.0);
    EXPECT_GE(e.dur_ns, 0.0);
    if (e.kind == EventKind::kSplit) {
      ++splits;
      EXPECT_EQ(e.arg, 7u);
    }
    if (e.kind == EventKind::kAccumulate) {
      ++accumulates;
      EXPECT_EQ(e.arg, 100u);
    }
    if (e.kind == EventKind::kFork) {
      ++forks;
      EXPECT_EQ(e.dur_ns, 0.0);
    }
  }
  EXPECT_EQ(splits, 1u);
  EXPECT_EQ(accumulates, 1u);
  EXPECT_EQ(forks, 1u);
}

TEST_F(TraceTest, ChromeJsonIsWellFormed) {
  if (kEnabled) {
    TraceRecorder::global().enable();
    { Span s(EventKind::kCombine, 3); }
    { Span s(EventKind::kTask); }
    TraceRecorder::global().disable();
  }
  const std::string json = TraceRecorder::global().chrome_json();
  EXPECT_TRUE(JsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  if (kEnabled) {
    EXPECT_NE(json.find("\"combine\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  }
}

TEST_F(TraceTest, ClearDropsEvents) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  TraceRecorder::global().enable();
  { Span s(EventKind::kJoin); }
  TraceRecorder::global().disable();
  EXPECT_FALSE(TraceRecorder::global().events().empty());
  TraceRecorder::global().clear();
  EXPECT_TRUE(TraceRecorder::global().events().empty());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST_F(TraceTest, SessionFlushesOnScopeExit) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  const std::string path =
      ::testing::TempDir() + "trace_session_scope.json";
  std::remove(path.c_str());
  {
    pls::observe::TraceSession session(path);
    EXPECT_TRUE(TraceRecorder::global().enabled());
    Span s(EventKind::kSplit, 9);
  }
  EXPECT_FALSE(TraceRecorder::global().enabled());
  const std::string json = slurp(path);
  EXPECT_TRUE(JsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("\"split\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, SessionFlushesEvenWhenUnwindingOnException) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  const std::string path =
      ::testing::TempDir() + "trace_session_throw.json";
  std::remove(path.c_str());
  try {
    pls::observe::TraceSession session(path);
    { Span s(EventKind::kCombine, 1); }
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  const std::string json = slurp(path);
  EXPECT_TRUE(JsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("\"combine\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, FlushWithoutPathOrEventsIsANoOp) {
  auto& rec = TraceRecorder::global();
  rec.set_output_path("");
  EXPECT_FALSE(rec.flush());  // no path
  if (kEnabled) {
    const std::string path = ::testing::TempDir() + "trace_empty.json";
    std::remove(path.c_str());
    rec.set_output_path(path);
    EXPECT_FALSE(rec.flush());  // no events: existing file not clobbered
    std::ifstream probe(path);
    EXPECT_FALSE(probe.good());
    rec.set_output_path("");
  }
}

TEST_F(TraceTest, FlushReportsAWriteRefusedAtClose) {
  // /dev/full accepts the open and the buffered write, then refuses the
  // bytes with ENOSPC when the stream is flushed at close.
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full";
  auto& rec = TraceRecorder::global();
  rec.enable();
  { Span s(EventKind::kSplit, 1); }
  rec.disable();
  rec.set_output_path("/dev/full");
  EXPECT_FALSE(rec.flush());
  rec.set_output_path("");
}

TEST_F(TraceTest, SimulatorEmitsSameSchema) {
  if (!kEnabled) GTEST_SKIP() << "observability compiled out";
  using pls::simmachine::CostModel;
  using pls::simmachine::Simulator;
  using pls::simmachine::TaskTrace;

  const TaskTrace trace = TaskTrace::balanced(
      3, 64, [](std::size_t len) { return static_cast<double>(len); },
      [](std::size_t) { return 1.0; }, [](std::size_t) { return 1.0; });
  CostModel m;
  m.ns_per_op = 2.0;
  const Simulator sim(m, 4);

  TraceRecorder::global().enable();
  const auto result = sim.run(trace);
  TraceRecorder::global().disable();

  const auto events = TraceRecorder::global().events();
  std::size_t virtual_segments = 0;
  double last_end = 0.0;
  for (const auto& e : events) {
    ASSERT_EQ(e.pid, 1u) << "simulated events must carry pid 1";
    EXPECT_LT(e.tid, 4u);
    if (e.kind != EventKind::kSteal) ++virtual_segments;
    last_end = std::max(last_end, e.start_ns + e.dur_ns);
  }
  // One event per executed segment: 8 leaves + 7 descends + 7 combines.
  EXPECT_EQ(virtual_segments, result.segments);
  EXPECT_EQ(virtual_segments, 22u);
  // The last event ends at the simulated makespan.
  EXPECT_NEAR(last_end, result.makespan_ns, 1e-9);
  // And the export of a mixed trace is still valid JSON.
  EXPECT_TRUE(JsonValidator::valid(TraceRecorder::global().chrome_json()));
}

}  // namespace
