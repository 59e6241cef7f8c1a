#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/ensure.h"

namespace ulc {
namespace obs {

namespace {

// Every bucket a sample can land in: the smallest subnormal's (frexp gives
// exp2 = -1073) up to +inf's, one past DBL_MAX's.
constexpr std::int64_t kMinIndex = -1073 * LatencyHistogram::kSubBuckets;
constexpr std::int64_t kMaxIndex = 1025 * LatencyHistogram::kSubBuckets;
// Buckets a fresh window spans on each side of its first sample (two octaves).
constexpr std::int64_t kWindowHeadroom = 2 * LatencyHistogram::kSubBuckets;

}  // namespace

int LatencyHistogram::subnormal_bucket_of(double ms) {
  int exp2 = 0;
  const double frac = std::frexp(ms, &exp2);  // ms = frac * 2^exp2, frac in [0.5, 1)
  // (frac - 0.5) and the multiply by 2*kSubBuckets (a power of two) are both
  // exact, so the truncation below is platform-independent.
  const int sub = static_cast<int>((frac - 0.5) * (2.0 * kSubBuckets));
  return exp2 * kSubBuckets + sub;
}

double LatencyHistogram::bucket_upper(int index) {
  // Floor division so negative indices (sub-millisecond octaves) map back to
  // the right octave.
  int exp2 = index / kSubBuckets;
  int sub = index % kSubBuckets;
  if (sub < 0) {
    sub += kSubBuckets;
    --exp2;
  }
  const double frac =
      0.5 + 0.5 * static_cast<double>(sub + 1) / static_cast<double>(kSubBuckets);
  return std::ldexp(frac, exp2);
}

void LatencyHistogram::widen(std::int64_t lo, std::int64_t hi) {
  const std::int64_t top = base_ + static_cast<std::int64_t>(counts_.size());
  if (!counts_.empty()) {
    // Grow by at least half the current span on the side that overflowed,
    // so a stream drifting across octaves re-copies O(log n) times.
    const std::int64_t pad =
        std::max(kWindowHeadroom, (std::max(hi, top) - std::min(lo, base_)) / 2);
    lo = lo < base_ ? lo - pad : base_;
    hi = hi > top ? hi + pad : top;
  } else {
    lo -= kWindowHeadroom;
    hi += kWindowHeadroom;
  }
  lo = std::max(lo, kMinIndex);
  hi = std::min(hi, kMaxIndex + 1);
  std::vector<std::uint64_t> grown(static_cast<std::size_t>(hi - lo), 0);
  std::copy(counts_.begin(), counts_.end(),
            grown.begin() + static_cast<std::ptrdiff_t>(base_ - lo));
  counts_ = std::move(grown);
  base_ = lo;
}

void LatencyHistogram::count_outside_window(int index) {
  widen(index, static_cast<std::int64_t>(index) + 1);
  ++counts_[static_cast<std::size_t>(index - base_)];
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (!other.counts_.empty()) {
    const std::int64_t other_top =
        other.base_ + static_cast<std::int64_t>(other.counts_.size());
    if (other.base_ < base_ ||
        other_top > base_ + static_cast<std::int64_t>(counts_.size()))
      widen(other.base_, other_top);
    const std::size_t at = static_cast<std::size_t>(other.base_ - base_);
    for (std::size_t i = 0; i < other.counts_.size(); ++i)
      counts_[at + i] += other.counts_[i];
  }
  zero_count_ += other.zero_count_;
  moments_.merge(other.moments_);
}

void LatencyHistogram::clear() {
  // Keeps the window: a cleared histogram usually sees the same range again.
  std::fill(counts_.begin(), counts_.end(), 0);
  zero_count_ = 0;
  moments_ = OnlineStats();
}

double LatencyHistogram::percentile(double p) const {
  ULC_REQUIRE(!empty(), "percentile of empty histogram");
  ULC_REQUIRE(p >= 0.0 && p <= 100.0, "percentile p out of [0, 100]");
  // Nearest-rank leaves p=0 undefined; return the exact minimum (the bucket
  // upper edge would overshoot it by up to one bucket width).
  if (p == 0.0) return moments_.min();  // ulc-lint: allow(float-eq)
  const std::uint64_t n = count();
  // Nearest-rank: smallest rank r (1-based) with r >= p/100 * n.
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  // The zero bucket (upper edge 0) sorts below every other bucket.
  std::uint64_t seen = zero_count_;
  if (seen >= rank) return std::min(std::max(0.0, moments_.min()), moments_.max());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      const double v = bucket_upper(static_cast<int>(base_ + static_cast<std::int64_t>(i)));
      return std::min(std::max(v, moments_.min()), moments_.max());
    }
  }
  return moments_.max();  // unreachable: bucket counts sum to n
}

Json LatencyHistogram::to_json() const {
  Json j = Json::object();
  j.set("count", count());
  if (empty()) {
    j.set("mean", nullptr);
    j.set("min", nullptr);
    j.set("max", nullptr);
    j.set("p50", nullptr);
    j.set("p95", nullptr);
    j.set("p99", nullptr);
    return j;
  }
  j.set("mean", mean());
  j.set("min", min());
  j.set("max", max());
  j.set("p50", percentile(50.0));
  j.set("p95", percentile(95.0));
  j.set("p99", percentile(99.0));
  return j;
}

void MetricsRegistry::add_counter(const std::string& name, std::uint64_t delta) {
  counters_[name] += delta;
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  gauges_[name] = value;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  return histograms_[name];
}

const LatencyHistogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, v] : other.gauges_) gauges_[name] = v;
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
}

Json MetricsRegistry::to_json() const {
  Json j = Json::object();
  if (!counters_.empty()) {
    Json c = Json::object();
    for (const auto& [name, v] : counters_) c.set(name, v);
    j.set("counters", std::move(c));
  }
  if (!gauges_.empty()) {
    Json g = Json::object();
    for (const auto& [name, v] : gauges_) g.set(name, v);
    j.set("gauges", std::move(g));
  }
  if (!histograms_.empty()) {
    Json h = Json::object();
    for (const auto& [name, hist] : histograms_) h.set(name, hist.to_json());
    j.set("histograms", std::move(h));
  }
  return j;
}

Json stats_to_json(const OnlineStats& s) {
  Json j = Json::object();
  j.set("count", s.count());
  if (s.empty()) {
    j.set("mean", nullptr);
    j.set("stddev", nullptr);
    j.set("min", nullptr);
    j.set("max", nullptr);
    return j;
  }
  j.set("mean", s.mean());
  j.set("stddev", s.stddev());
  j.set("min", s.min());
  j.set("max", s.max());
  return j;
}

}  // namespace obs
}  // namespace ulc
