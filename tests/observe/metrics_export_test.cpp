// Continuous-telemetry exporter contract (ISSUE 9 acceptance):
//
//   1. A profiled fig3-style run under a MetricsSession yields a
//      Prometheus exposition that is valid against the text-format
//      grammar (metric-name charset, HELP/TYPE lines, label escaping,
//      monotone counter semantics) and contains every CounterBlock field,
//      the histogram quantiles, and the pool gauges.
//   2. The JSONL run log holds exactly one run record per executed
//      terminal, whose cache_key matches pls::session::plan(), and
//      survives a parse-and-recount round trip.
//
// The parsers below are deliberately minimal — enough structure to fail
// on grammar violations, no external JSON/Prometheus dependency.
#include "pls.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace obs = pls::observe;

// ---- tiny Prometheus text-format parser -------------------------------

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  auto tail = [&](char c) {
    return head(c) || std::isdigit(static_cast<unsigned char>(c));
  };
  if (!head(name[0])) return false;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (!tail(name[i])) return false;
  }
  return true;
}

struct PromSample {
  std::string name;
  std::string labels;  ///< raw text inside {...}, empty when unlabelled
  double value = 0.0;
};

struct PromDoc {
  std::map<std::string, std::string> types;  ///< name -> counter|gauge
  std::set<std::string> helps;               ///< names with a HELP line
  std::vector<PromSample> samples;
  std::vector<std::string> errors;
};

PromDoc parse_prometheus(const std::string& text) {
  PromDoc doc;
  std::istringstream in(text);
  std::string line;
  auto fail = [&](const std::string& why) {
    doc.errors.push_back(why + ": " + line);
  };
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const bool is_type = line[2] == 'T';
      const std::string rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      if (sp == std::string::npos) {
        fail("comment line without payload");
        continue;
      }
      const std::string name = rest.substr(0, sp);
      if (!valid_metric_name(name)) fail("bad metric name in comment");
      if (is_type) {
        const std::string type = rest.substr(sp + 1);
        if (type != "counter" && type != "gauge") fail("unknown TYPE");
        if (doc.types.count(name) != 0) fail("duplicate TYPE line");
        doc.types[name] = type;
      } else {
        doc.helps.insert(name);
      }
      continue;
    }
    if (line[0] == '#') continue;  // other comments are legal
    // Sample line: name[{label="value"}] value
    PromSample s;
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    s.name = line.substr(0, i);
    if (!valid_metric_name(s.name)) fail("bad metric name in sample");
    if (i < line.size() && line[i] == '{') {
      // Scan the label block respecting escapes inside quoted values: a
      // raw '}' inside a properly escaped value cannot occur unquoted.
      std::size_t j = i + 1;
      bool in_string = false;
      for (; j < line.size(); ++j) {
        const char c = line[j];
        if (in_string) {
          if (c == '\\') {
            if (j + 1 >= line.size()) break;
            const char e = line[j + 1];
            if (e != '\\' && e != '"' && e != 'n') {
              fail("invalid escape in label value");
            }
            ++j;
          } else if (c == '"') {
            in_string = false;
          }
        } else if (c == '"') {
          in_string = true;
        } else if (c == '}') {
          break;
        }
      }
      if (j >= line.size() || line[j] != '}') {
        fail("unterminated label block");
        continue;
      }
      s.labels = line.substr(i + 1, j - i - 1);
      i = j + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
      fail("sample without value separator");
      continue;
    }
    const std::string value = line.substr(i + 1);
    char* end = nullptr;
    s.value = std::strtod(value.c_str(), &end);
    if (end == value.c_str()) fail("unparseable sample value");
    if (doc.types.count(s.name) == 0) {
      fail("sample before its TYPE line");
    }
    doc.samples.push_back(std::move(s));
  }
  return doc;
}

// ---- tiny JSONL field extraction --------------------------------------

/// Value of `"key":` in a single-line JSON object, raw (unquoted for
/// strings); empty when absent. Sufficient for the writer's known format.
std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  std::size_t i = at + needle.size();
  if (line[i] == '"') {
    std::size_t j = i + 1;
    while (j < line.size() && line[j] != '"') {
      if (line[j] == '\\') ++j;
      ++j;
    }
    return line.substr(i + 1, j - i - 1);
  }
  std::size_t j = i;
  while (j < line.size() && line[j] != ',' && line[j] != '}') ++j;
  return line.substr(i, j - i);
}

// ---- workloads --------------------------------------------------------

std::vector<double> coefficients(std::size_t n) {
  std::vector<double> c(n);
  for (std::size_t i = 0; i < n; ++i) {
    c[i] = 1.0 + static_cast<double>(i % 7) * 0.125;
  }
  return c;
}

long stream_reduce(pls::session& s, long n) {
  auto data = std::make_shared<const std::vector<long>>([n] {
    std::vector<long> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 1);
    return v;
  }());
  return pls::streams::Stream<long>::of_shared(data)
      .parallel(s.stream_config())
      .map([](long v) { return v * 2; })
      .reduce(0L, [](long a, long b) { return a + b; });
}

// ---- tests ------------------------------------------------------------

TEST(MetricsExport, ExpositionGrammarAndCoverage) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  obs::MetricsSession metrics(/*interval_ms=*/2);
  pls::config cfg;
  cfg.parallelism = 2;
  cfg.grain = 64;
  cfg.profile = true;
  pls::run(cfg, [&](pls::session& s) {
    // The fig3 workload shape: profiled PowerList polynomial evaluation.
    const auto coeffs = coefficients(1 << 10);
    pls::powerlist::PolynomialFunction<double> vp;
    const auto view = pls::powerlist::view_of(coeffs);
    (void)s.execute(vp, view, 0.9991);
    (void)stream_reduce(s, 1 << 12);

    const std::string text = obs::prometheus_text(s.metrics());
    const PromDoc doc = parse_prometheus(text);
    EXPECT_TRUE(doc.errors.empty())
        << doc.errors.size() << " grammar errors, first: " << doc.errors[0];
    EXPECT_FALSE(doc.samples.empty());

    // Every CounterBlock field appears under its canonical-table name.
    for (const obs::CounterField& f : obs::kCounterFields) {
      const std::string name = f.monotone
                                   ? "pls_" + std::string(f.name) + "_total"
                                   : "pls_" + std::string(f.name);
      ASSERT_EQ(doc.types.count(name), 1u) << "missing counter field " << name;
      EXPECT_EQ(doc.types.at(name), f.monotone ? "counter" : "gauge") << name;
      EXPECT_EQ(doc.helps.count(name), 1u) << "missing HELP for " << name;
    }

    // Histogram quantiles: both quantile labels per time metric.
    for (const char* q : {"quantile=\"0.5\"", "quantile=\"0.9\""}) {
      bool found = false;
      for (const PromSample& sm : doc.samples) {
        if (sm.name == "pls_hist_leaf_run_ns" &&
            sm.labels.find(q) != std::string::npos) {
          found = true;
        }
      }
      EXPECT_TRUE(found) << "missing pls_hist_leaf_run_ns " << q;
    }

    // Pool gauges, labelled by pool ordinal.
    for (const char* name :
         {"pls_pool_workers", "pls_pool_utilization",
          "pls_pool_starvation_ratio", "pls_pool_queue_backlog"}) {
      bool found = false;
      for (const PromSample& sm : doc.samples) {
        if (sm.name == name && sm.labels.rfind("pool=", 0) == 0) found = true;
      }
      EXPECT_TRUE(found) << "missing pool gauge " << name;
    }
    EXPECT_EQ(doc.types.count("pls_plan_cache_entries"), 1u);
    EXPECT_EQ(doc.types.count("pls_runs_total"), 1u);

  });
}

TEST(MetricsExport, CountersAreMonotoneAcrossScrapes) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  pls::config cfg;
  cfg.parallelism = 2;
  pls::run(cfg, [&](pls::session& s) {
    const PromDoc before = parse_prometheus(obs::prometheus_text(s.metrics()));
    (void)stream_reduce(s, 1 << 12);
    const PromDoc after = parse_prometheus(obs::prometheus_text(s.metrics()));
    EXPECT_TRUE(after.errors.empty());
    auto series = [](const PromDoc& d) {
      std::map<std::string, double> out;
      for (const PromSample& sm : d.samples) {
        if (d.types.count(sm.name) != 0 &&
            d.types.at(sm.name) == "counter") {
          out[sm.name + "{" + sm.labels + "}"] = sm.value;
        }
      }
      return out;
    };
    const auto s0 = series(before);
    const auto s1 = series(after);
    ASSERT_FALSE(s0.empty());
    for (const auto& [key, v0] : s0) {
      const auto it = s1.find(key);
      ASSERT_NE(it, s1.end()) << "counter series vanished: " << key;
      EXPECT_GE(it->second, v0) << "counter went backwards: " << key;
    }

  });
}

TEST(MetricsExport, LabelEscapingRoundTrips) {
  // The writer is real in both build modes; feed it a hostile label.
  obs::MetricsSample sample;
  sample.rows.push_back(obs::MetricRow{
      "pls_escape_probe", obs::MetricKind::kGauge, 1.0, "path",
      "a\"b\\c\nd", "escape \\ probe\nhelp"});
  const std::string text = obs::prometheus_text(sample);
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos) << text;
  EXPECT_NE(text.find("# HELP pls_escape_probe escape \\\\ probe\\nhelp"),
            std::string::npos)
      << text;
  const PromDoc doc = parse_prometheus(text);
  EXPECT_TRUE(doc.errors.empty()) << (doc.errors.empty() ? "" : doc.errors[0]);
  ASSERT_EQ(doc.samples.size(), 1u);
  EXPECT_EQ(doc.samples[0].name, "pls_escape_probe");
}

TEST(MetricsExport, RunLogOneRecordPerTerminalAndRecount) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const std::string path =
      testing::TempDir() + "pls_metrics_export_test_runs.jsonl";
  std::remove(path.c_str());

  std::uint64_t expected_key = 0;
  std::uint64_t expected_runs = 0;
  std::uint64_t expected_elements = 0;
  {
    obs::MetricsSession metrics(/*interval_ms=*/2, path);
    pls::config cfg;
    cfg.parallelism = 2;
    cfg.grain = 64;
    cfg.profile = true;
    pls::run(cfg, [&](pls::session& s) {
      constexpr int kStreamTerminals = 3;
      for (int i = 0; i < kStreamTerminals; ++i) {
        (void)stream_reduce(s, 1 << 12);
      }
      const auto coeffs = coefficients(1 << 10);
      pls::powerlist::PolynomialFunction<double> vp;
      const auto view = pls::powerlist::view_of(coeffs);
      (void)s.execute(vp, view, 0.9991);

      const auto runs = s.runs();
      ASSERT_EQ(runs.size(),
                static_cast<std::size_t>(kStreamTerminals) + 1u)
          << "expected exactly one run record per executed terminal";
      // The last record correlates with the thread's last plan.
      EXPECT_EQ(runs.back().cache_key, s.plan().cache_key);
      EXPECT_STREQ(runs.back().terminal, "power_function");
      for (const obs::RunRecord& r : runs) {
        EXPECT_GT(r.counters.elements_accumulated, 0u);
        expected_elements += r.counters.elements_accumulated;
      }
      expected_key = runs.back().cache_key;
      expected_runs = runs.size();
    });
  }  // MetricsSession teardown flushes the JSONL log.

  std::ifstream in(path);
  ASSERT_TRUE(in) << "run log was not written: " << path;
  std::string line;
  std::uint64_t run_lines = 0;
  std::uint64_t sample_lines = 0;
  std::uint64_t recounted_elements = 0;
  std::string last_key;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    ASSERT_EQ(line.front(), '{');
    ASSERT_EQ(line.back(), '}');
    const std::string type = json_field(line, "type");
    if (type == "run") {
      ++run_lines;
      last_key = json_field(line, "cache_key");
      const std::string elements =
          json_field(line, "elements_accumulated");
      ASSERT_FALSE(elements.empty());
      recounted_elements += std::strtoull(elements.c_str(), nullptr, 10);
    } else {
      ASSERT_EQ(type, "sample");
      ++sample_lines;
    }
  }
  // Parse-and-recount: the log carries the same run count, the same
  // element totals, and the same (full 64-bit, string-encoded) cache key
  // that the in-process registry reported.
  EXPECT_EQ(run_lines, expected_runs);
  EXPECT_EQ(recounted_elements, expected_elements);
  EXPECT_EQ(last_key, std::to_string(expected_key));
  EXPECT_GE(sample_lines, 1u) << "teardown pushes at least one sample";
  std::remove(path.c_str());
}

TEST(MetricsExport, FlushReportsAWriteRefusedAtClose) {
  // /dev/full accepts the open and the buffered write, then refuses the
  // bytes with ENOSPC when the stream is flushed at close.
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full";
  obs::RunRegistry::global().append(obs::RunRecord{});
  auto& log = obs::MetricsLog::global();
  const std::string saved = log.output_path();
  log.set_output_path("/dev/full");
  EXPECT_FALSE(log.flush());
  log.set_output_path(saved);
}

}  // namespace
