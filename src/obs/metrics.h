// Deterministic observability primitives: named counters/gauges, log-bucketed
// latency histograms with exact-rank percentiles, and an RAII scope timer.
//
// Everything here is keyed to *simulated* time or access index — never the
// wall clock — so any instrumented run replays bit-for-bit. Histograms and
// registries merge associatively; the engine merges per-cell instances in
// fixed spec order, which is what keeps `--threads=1` and `--threads=8`
// output byte-identical. Registry containers are std::map (ordered) on
// purpose: iteration order is part of the determinism contract.
//
// Compile-time switch: building with -DULC_ENABLE_OBS=0 turns obs::enabled()
// into a constexpr false, so every `obs::gate(ptr)` call site collapses to a
// null pointer and the instrumentation branches compile out entirely. At
// runtime the switch is simply "pass nullptr" — both are exercised by
// ops_microbench.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/stats.h"

#ifndef ULC_ENABLE_OBS
#define ULC_ENABLE_OBS 1
#endif

namespace ulc {
namespace obs {

constexpr bool enabled() { return ULC_ENABLE_OBS != 0; }

// Collapses instrumentation pointers to nullptr when observability is
// compiled out, letting the optimizer delete the recording paths.
template <class T>
constexpr T* gate(T* p) {
  return enabled() ? p : nullptr;
}

// Log-bucketed latency histogram (milliseconds).
//
// Buckets are log-linear: each power-of-two octave is split into kSubBuckets
// equal slices, so the relative width of any bucket is at most 1/kSubBuckets
// (~3.1%). Bucket selection reads the IEEE-754 bits of the sample (frexp for
// subnormals), so it is exact and identical on every platform. Percentiles
// are nearest-rank: the rank is exact; the returned value is the upper edge
// of the bucket holding that rank, clamped to the exact observed [min, max]
// (so p0/p100 are exact and every quantile is within one bucket width of the
// true order statistic). Non-positive and NaN samples (e.g. 0 ms local hits)
// land in a dedicated zero bucket below every other; +inf has its own bucket
// above every finite one.
//
// Layout: the counts live in one dense array over a window of consecutive
// bucket indices that grows to cover each new index, plus the zero-bucket
// count. Recording an in-window sample is a shift, a subtract, a bounds check
// and an increment; the window only grows when a sample lands outside it
// (it is bounded by the finite index range, about 67k buckets).
class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 32;

  void record(double ms) {
    if (ms > 0.0) {
      const int index = bucket_of(ms);
      const std::size_t slot =
          static_cast<std::size_t>(static_cast<std::int64_t>(index) - base_);
      if (slot < counts_.size()) {
        ++counts_[slot];
      } else {
        count_outside_window(index);
      }
    } else {
      ++zero_count_;
    }
    moments_.add(ms);
  }
  // Element-wise sum; merging is associative and commutative, but callers
  // must still merge in a fixed order when exact moment (mean/stddev)
  // reproducibility across merge shapes matters.
  void merge(const LatencyHistogram& other);
  void clear();

  bool empty() const { return moments_.empty(); }
  std::uint64_t count() const { return moments_.count(); }
  double sum() const { return moments_.sum(); }
  double mean() const { return moments_.mean(); }
  // Exact observed extrema; both require a non-empty histogram.
  double min() const { return moments_.min(); }
  double max() const { return moments_.max(); }
  // The Welford accumulator over every recorded sample, in record order:
  // bit-identical to an OnlineStats fed the same samples, so callers that
  // report both need only one accumulator.
  const OnlineStats& moments() const { return moments_; }

  // Nearest-rank percentile, p in [0, 100]; requires a non-empty histogram.
  double percentile(double p) const;

  // {"count", "mean", "min", "max", "p50", "p95", "p99"}; all value fields
  // are null when the histogram is empty.
  Json to_json() const;

 private:
  // Index of a sample > 0: octave * kSubBuckets + slice, exactly the
  // exp2 * kSubBuckets + (frac - 0.5) * 2 * kSubBuckets of frexp.
  static int bucket_of(double ms) {
    static_assert(kSubBuckets == 32, "the slice is the mantissa's top 5 bits");
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(ms);
    if ((bits >> 52) == 0) return subnormal_bucket_of(ms);
    // Biased exponent e and the mantissa's top five bits side by side:
    // (e - 1022) * 32 + (mantissa >> 47). For +inf this is one past the
    // bucket of DBL_MAX.
    return static_cast<int>(bits >> 47) - 1022 * kSubBuckets;
  }
  static int subnormal_bucket_of(double ms);
  static double bucket_upper(int index);
  void count_outside_window(int index);
  // Grows the window to cover [lo, hi) (plus headroom), keeping the counts.
  void widen(std::int64_t lo, std::int64_t hi);

  std::vector<std::uint64_t> counts_;  // counts_[i]: bucket base_ + i
  std::int64_t base_ = 0;
  std::uint64_t zero_count_ = 0;
  OnlineStats moments_;
};

// Named counters, gauges and latency histograms. Lookup is by string name;
// std::map keeps to_json() and merge() deterministic. One registry per
// experiment cell / simulator run; merge in fixed order for aggregates.
class MetricsRegistry {
 public:
  void add_counter(const std::string& name, std::uint64_t delta = 1);
  // 0 when the counter has never been touched.
  std::uint64_t counter(const std::string& name) const;

  void set_gauge(const std::string& name, double value);

  // Creates the histogram on first use.
  LatencyHistogram& histogram(const std::string& name);
  // nullptr when absent.
  const LatencyHistogram* find_histogram(const std::string& name) const;

  // Counters add, gauges take `other`'s value (last writer wins), histograms
  // merge element-wise.
  void merge(const MetricsRegistry& other);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}} with
  // keys in lexicographic order; empty sections are omitted.
  Json to_json() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, LatencyHistogram> histograms_;
};

// RAII span timer over a *simulated* clock. Reads `*sim_clock_ms` at
// construction and destruction and records the difference; a null histogram
// or clock makes it a no-op, so call sites need no `if (obs)` guards.
class ScopeTimer {
 public:
  ScopeTimer(LatencyHistogram* hist, const double* sim_clock_ms)
      : hist_(hist),
        clock_(sim_clock_ms),
        start_(hist && sim_clock_ms ? *sim_clock_ms : 0.0) {}
  ~ScopeTimer() {
    if (hist_ && clock_) hist_->record(*clock_ - start_);
  }

  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  LatencyHistogram* hist_;
  const double* clock_;
  double start_;
};

// {"count", "mean", "stddev", "min", "max"} for a Welford accumulator; the
// value fields are null when no samples were recorded (the empty-stats fix:
// a zero-request phase must not report min=0).
Json stats_to_json(const OnlineStats& s);

}  // namespace obs
}  // namespace ulc
