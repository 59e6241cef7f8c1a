// Measurement plumbing shared by every perfbench workload: clocks, process
// CPU time and peak memory, exact latency recording, spans, and the result
// record the command line prints.
//
// Nothing here calls into the program under test, so a change to the
// program's own histograms, load generator or metrics registry cannot move
// what this file measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---- Run options (from the command line) ----

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the timed region
  bool trace = false;     // traced run: per-layer metrics instead of end-to-end
};

// ---- Clocks ----

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// User + system CPU time of the whole process (every thread, the program's
// own worker threads included), in seconds.
double process_cpu_seconds();
// The same clock at nanosecond resolution, for intervals of a millisecond or
// less.
std::uint64_t process_cpu_ns();

// Host-wide CPU ticks from /proc/stat: all of them, and those the
// hypervisor stole from this machine. Zero where /proc/stat is unreadable.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();
// Share of the machine's CPU time stolen between two readings, as a
// diagnostic: timings taken while it is high reflect the host, not the
// program.
double steal_share(const CpuTicks& before, const CpuTicks& after);

// Peak resident set size of the process so far, in MiB.
double peak_rss_mib();
// Restarts the peak-RSS high-water mark where the kernel supports it, so a
// process that runs several workloads reports each one's own peak.
void reset_peak_rss();

// ---- Set-up repeats ----

// Whether to run set-up once more, after `done` set-ups that took `total_s`
// seconds together: at least 3, then until they add up to a second (at most
// 15), so that a short set-up's median rests on enough samples.
inline bool another_setup(std::size_t done, double total_s) {
  return done < 3 || (total_s < 1.0 && done < 15);
}

// ---- Exact latency recording ----

// Records call-to-return times at 1 ns resolution into storage allocated
// before the timed region: a dense count per nanosecond up to kDenseNs, and a
// reserved overflow list beyond. Percentiles are therefore exact order
// statistics, not bucket bounds.
class LatencyRecorder {
 public:
  static constexpr std::uint64_t kDenseNs = std::uint64_t{1} << 20;  // ~1 ms

  LatencyRecorder();

  void record(std::uint64_t ns) {
    ++count_;
    if (ns < kDenseNs) {
      ++dense_[ns];
    } else {
      overflow_.push_back(ns);
    }
  }

  void merge(const LatencyRecorder& other);
  void clear();

  std::uint64_t count() const { return count_; }
  // Exact nearest-rank percentile in ns (p in [0, 100]); 0 when empty.
  std::uint64_t percentile_ns(double p) const;
  double mean_ns() const;

 private:
  std::vector<std::uint32_t> dense_;
  std::vector<std::uint64_t> overflow_;
  std::uint64_t count_ = 0;
};

// Exact nearest-rank percentile of a sample (copied, then selected).
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

// ---- Spans ----

// A span brackets one call into a layer, recorded from the benchmark's side
// of the call. Spans of one request share `request`; `parent` is the index of
// the enclosing span in the same recorder (or kNoParent).
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  std::uint32_t name = 0;  // index into SpanNames
  std::uint32_t parent = kNoParent;
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

// Interned span names (filled during set-up, read-only while timing).
class SpanNames {
 public:
  std::uint32_t intern(const std::string& name);
  const std::string& name(std::uint32_t id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
};

// Per-thread span buffer with a fixed capacity reserved up front; spans past
// the capacity are counted as dropped rather than allocating while timing.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity = 0) { spans_.reserve(capacity); }

  // Opens a span and returns its index (for children and close()).
  std::uint32_t open(std::uint32_t name, std::uint64_t request,
                     std::uint32_t parent = Span::kNoParent) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return Span::kNoParent;
    }
    spans_.push_back(Span{name, parent, request, now_ns(), 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void close(std::uint32_t index) {
    if (index != Span::kNoParent) spans_[index].end_ns = now_ns();
  }
  // Records an already-measured interval.
  void add(std::uint32_t name, std::uint64_t request, std::uint64_t start_ns,
           std::uint64_t end_ns, std::uint32_t parent = Span::kNoParent) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{name, parent, request, start_ns, end_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// Per span name: count, total and self time (duration minus the part its
// child spans cover), aggregated over several recorders.
struct SpanSummary {
  std::string name;
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};
std::vector<SpanSummary> summarize_spans(const SpanNames& names,
                                         const std::vector<const SpanRecorder*>& recorders);

// Writes the span summary plus the first `max_spans` raw spans of each
// recorder as JSON. Returns false (with a message on stderr) on IO failure.
bool write_span_file(const std::string& path, const SpanNames& names,
                     const std::vector<const SpanRecorder*>& recorders,
                     std::size_t max_spans);

// ---- Results ----

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  std::string workload;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Human-readable lines (per-cell counters, sample counts, checks).
  std::vector<std::string> report;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void note(const std::string& line) { report.push_back(line); }
  // The value of metric `name` added so far (0 when absent).
  double value(const std::string& name) const;
  // Records a failed correctness check (counted in `failed`).
  void fail(const std::string& what);
};

// The result as one JSON line, printed last on stdout.
std::string result_json(const WorkloadResult& result);

// Where traced runs write their span files: $PERFBENCH_OUT, else the
// current directory.
std::string output_dir();

// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
