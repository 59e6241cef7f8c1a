#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u + static_cast<std::uint64_t>(ts.tv_nsec);
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  stat >> cpu >> v[0] >> v[1] >> v[2] >> v[3] >> v[4] >> v[5] >> v[6] >> v[7];
  if (!stat || cpu != "cpu") return {};
  CpuTicks t;
  for (std::uint64_t x : v) t.total += x;
  t.steal = v[7];
  return t;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double peak_rss_mib() {
  // VmHWM honours reset_peak_rss(); ru_maxrss is the fallback.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void reset_peak_rss() {
  // "5" resets the process's peak RSS (Linux >= 4.0); harmless elsewhere.
  std::ofstream clear("/proc/self/clear_refs");
  if (clear) clear << "5";
}

// ---- LatencyRecorder ----

LatencyRecorder::LatencyRecorder() : dense_(kDenseNs, 0) { overflow_.reserve(1 << 16); }

void LatencyRecorder::merge(const LatencyRecorder& other) {
  for (std::size_t i = 0; i < dense_.size(); ++i) dense_[i] += other.dense_[i];
  overflow_.insert(overflow_.end(), other.overflow_.begin(), other.overflow_.end());
  count_ += other.count_;
}

void LatencyRecorder::clear() {
  std::fill(dense_.begin(), dense_.end(), 0);
  overflow_.clear();
  count_ = 0;
}

std::uint64_t LatencyRecorder::percentile_ns(double p) const {
  if (count_ == 0) return 0;
  // Nearest rank: the smallest value with at least ceil(p% * n) samples <= it.
  const double want = std::ceil(p / 100.0 * static_cast<double>(count_));
  const std::uint64_t rank = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(want));
  std::uint64_t seen = 0;
  for (std::uint64_t ns = 0; ns < dense_.size(); ++ns) {
    seen += dense_[ns];
    if (seen >= rank) return ns;
  }
  std::vector<std::uint64_t> tail = overflow_;
  const std::size_t index = static_cast<std::size_t>(rank - seen - 1);
  std::nth_element(tail.begin(), tail.begin() + static_cast<std::ptrdiff_t>(index),
                   tail.end());
  return tail[index];
}

double LatencyRecorder::mean_ns() const {
  if (count_ == 0) return 0.0;
  double sum = 0.0;
  for (std::uint64_t ns = 0; ns < dense_.size(); ++ns)
    sum += static_cast<double>(ns) * dense_[ns];
  for (std::uint64_t ns : overflow_) sum += static_cast<double>(ns);
  return sum / static_cast<double>(count_);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const double want = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t rank = std::max<std::size_t>(1, static_cast<std::size_t>(want));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---- Spans ----

std::uint32_t SpanNames::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::vector<SpanSummary> summarize_spans(const SpanNames& names,
                                         const std::vector<const SpanRecorder*>& recorders) {
  std::vector<SpanSummary> out(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) out[i].name = names.name(static_cast<std::uint32_t>(i));
  for (const SpanRecorder* rec : recorders) {
    const std::vector<Span>& spans = rec->spans();
    // Children are recorded after their parent, so one pass that charges
    // each closed child's duration to its parent yields self times.
    std::vector<double> child_ns(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns < s.start_ns) continue;  // never closed
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      if (s.parent != Span::kNoParent && s.parent < spans.size()) child_ns[s.parent] += d;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns < s.start_ns) continue;
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      SpanSummary& sum = out[s.name];
      ++sum.count;
      sum.total_ns += d;
      sum.self_ns += std::max(0.0, d - child_ns[i]);
    }
  }
  return out;
}

bool write_span_file(const std::string& path, const SpanNames& names,
                     const std::vector<const SpanRecorder*>& recorders,
                     std::size_t max_spans) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write span file %s\n", path.c_str());
    return false;
  }
  out << "{\n  \"summary\": [";
  bool first = true;
  for (const SpanSummary& s : summarize_spans(names, recorders)) {
    out << (first ? "\n" : ",\n")
        << strprintf("    {\"name\": \"%s\", \"count\": %llu, \"total_ns\": %.0f, "
                     "\"self_ns\": %.0f}",
                     s.name.c_str(), static_cast<unsigned long long>(s.count),
                     s.total_ns, s.self_ns);
    first = false;
  }
  out << "\n  ],\n  \"recorders\": [";
  for (std::size_t r = 0; r < recorders.size(); ++r) {
    const SpanRecorder& rec = *recorders[r];
    out << (r == 0 ? "\n" : ",\n") << "    {\"dropped\": " << rec.dropped()
        << ", \"spans\": [";
    const std::size_t n = std::min(max_spans, rec.spans().size());
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = rec.spans()[i];
      out << (i == 0 ? "" : ", ")
          << strprintf("[\"%s\", %lld, %llu, %llu, %llu]", names.name(s.name).c_str(),
                       s.parent == Span::kNoParent ? -1LL : static_cast<long long>(s.parent),
                       static_cast<unsigned long long>(s.request),
                       static_cast<unsigned long long>(s.start_ns),
                       static_cast<unsigned long long>(s.end_ns));
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
  return static_cast<bool>(out);
}

// ---- Results ----

void WorkloadResult::fail(const std::string& what) {
  ++failed;
  correct = false;
  // Keep the report readable when a defect fails thousands of operations.
  if (failed <= 5) note("FAILED: " + what);
}

double WorkloadResult::value(const std::string& name) const {
  for (const Metric& m : metrics)
    if (m.name == name) return m.value;
  return 0.0;
}

std::string result_json(const WorkloadResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    // %.17g keeps every digit; non-finite values are not JSON numbers.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out << (i == 0 ? "" : ", ")
        << strprintf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", m.name.c_str(), v,
                     m.unit.c_str());
  }
  out << "}}";
  return out.str();
}

std::string output_dir() {
  const char* dir = std::getenv("PERFBENCH_OUT");
  return dir != nullptr && *dir != '\0' ? dir : ".";
}

std::string strprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace perfbench
