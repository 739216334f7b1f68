#include "harness.hpp"

#include <cinttypes>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<double> Trace::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (names_[s.name] == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

double Trace::sum_a(std::string_view name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (names_[s.name] == name) t += s.a;
  }
  return t;
}

double Trace::sum_b(std::string_view name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (names_[s.name] == name) t += s.b;
  }
  return t;
}

std::size_t Trace::count(std::string_view name) const {
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (names_[s.name] == name) ++n;
  }
  return n;
}

std::vector<std::int64_t> Trace::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

void Trace::write_jsonl(std::FILE* f, std::string_view pass) const {
  const auto self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"pass\":\"%.*s\",\"id\":%zu,\"op\":%" PRIu64
                 ",\"name\":\"%s\",\"parent\":%d,\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"self_ns\":%" PRId64
                 ",\"a\":%.17g,\"b\":%.17g}\n",
                 static_cast<int>(pass.size()), pass.data(), i, s.op,
                 names_[s.name].c_str(), s.parent, s.start_ns, s.end_ns,
                 self[i], s.a, s.b);
  }
}

void Trace::print_summary(std::string_view pass) const {
  const auto self = self_ns();
  for (std::uint32_t n = 0; n < names_.size(); ++n) {
    std::vector<double> dur;
    double self_total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != n) continue;
      dur.push_back(
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6);
      self_total += static_cast<double>(self[i]) / 1e6;
    }
    std::printf("span %-10.*s %-28s n=%-7zu median_ms=%-12.6g self_ms=%.6g\n",
                static_cast<int>(pass.size()), pass.data(), names_[n].c_str(),
                dur.size(), median(dur), self_total);
  }
}

EndToEnd summarize(const PassResult& r) {
  const auto slice_ns = static_cast<std::int64_t>(r.slice_seconds * 1e9);
  std::map<std::int64_t, std::vector<const Sample*>> slices;
  for (const Sample& s : r.samples) {
    const std::int64_t k = s.start_ns / slice_ns;
    if (r.open_loop && k >= static_cast<std::int64_t>(r.slice_elems.size())) {
      continue;
    }
    slices[k].push_back(&s);
  }
  std::vector<double> counts;
  for (const auto& [k, v] : slices) counts.push_back(static_cast<double>(v.size()));
  // A slice with under half the typical sample count (the run's tail) is
  // too thin for a p90.
  const double min_count = 0.5 * median(counts);

  EndToEnd out;
  std::vector<double> tput, p50, p90;
  for (const auto& [k, v] : slices) {
    if (static_cast<double>(v.size()) < min_count) continue;
    std::vector<double> lat;
    double elems = 0.0;
    double busy_ns = 0.0;
    for (const Sample* s : v) {
      lat.push_back(static_cast<double>(s->latency_ns) / 1e6);
      elems += static_cast<double>(s->elems);
      busy_ns += static_cast<double>(s->latency_ns);
    }
    tput.push_back(r.open_loop
                       ? r.slice_elems[static_cast<std::size_t>(k)] /
                             r.slice_seconds / 1e6
                       : elems / (busy_ns / 1e9) / 1e6);
    p50.push_back(quantile(lat, 0.5));
    p90.push_back(quantile(lat, 0.9));
    out.samples += v.size();
    ++out.slices;
  }
  out.throughput_melem_s = median(tput);
  out.latency_p50_ms = median(p50);
  out.latency_p90_ms = median(p90);
  return out;
}

double trace_overhead_pct(const std::vector<Sample>& samples) {
  std::vector<double> on, off;
  for (const Sample& s : samples) {
    (s.traced ? on : off).push_back(static_cast<double>(s.latency_ns));
  }
  if (on.empty() || off.empty()) return 0.0;
  return (median(on) / median(off) - 1.0) * 100.0;
}

}  // namespace perfbench
