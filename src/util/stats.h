// Small statistics helpers shared by the simulator and the benches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace ulc {

// Streaming mean/variance/min/max (Welford).
//
// Emptiness is explicit: callers must check empty() (or count()) before
// asking for extrema. min()/max() abort on an empty accumulator instead of
// silently returning 0.0 — a zero-request phase reporting min=0 used to
// poison JSON aggregates; JSON writers should emit null for empty stats
// (see obs::stats_to_json). mean()/sum() of an empty accumulator are 0.0 by
// convention (an empty sum), which is safe for additive aggregation.
class OnlineStats {
 public:
  // Inline: it sits on every observed reference's path (obs/metrics.h).
  void add(double x) {
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    if (count_ == 1) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
  }
  // Parallel Welford combine (Chan et al.); deterministic for a fixed merge
  // order — merge per-shard stats in a fixed order when byte-identical
  // output across thread counts matters.
  void merge(const OnlineStats& other);

  bool empty() const { return count_ == 0; }
  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  // Population variance (M2/n), not the sample estimator (M2/(n-1)): these
  // are exhaustive statistics over every simulated reference, not a sample
  // from a larger population. 0.0 when empty.
  double variance() const;
  double stddev() const;
  // Require a non-empty accumulator.
  double min() const;
  double max() const;
  double sum() const { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Fixed-bucket counting histogram over [0, buckets); out-of-range values are
// clamped to the last bucket. Used for segment/stack-depth distributions.
class Histogram {
 public:
  explicit Histogram(std::size_t buckets);

  void add(std::size_t bucket, std::uint64_t weight = 1);
  std::uint64_t bucket(std::size_t i) const;
  std::size_t buckets() const { return counts_.size(); }
  std::uint64_t total() const { return total_; }

  // Fraction of all samples in bucket i (0 if empty histogram).
  double ratio(std::size_t i) const;
  // Fraction of all samples in buckets [0, i].
  double cumulative_ratio(std::size_t i) const;

  void clear();

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace ulc
