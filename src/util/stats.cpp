#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/ensure.h"

namespace ulc {

void OnlineStats::merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * (nb / n);
  m2_ += other.m2_ + delta * delta * (na * nb / n);
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const {
  if (count_ == 0) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::min() const {
  ULC_REQUIRE(count_ > 0, "min() of empty OnlineStats (check empty() first)");
  return min_;
}

double OnlineStats::max() const {
  ULC_REQUIRE(count_ > 0, "max() of empty OnlineStats (check empty() first)");
  return max_;
}

Histogram::Histogram(std::size_t buckets) : counts_(buckets, 0) {
  ULC_REQUIRE(buckets > 0, "Histogram needs at least one bucket");
}

void Histogram::add(std::size_t bucket, std::uint64_t weight) {
  if (bucket >= counts_.size()) bucket = counts_.size() - 1;
  counts_[bucket] += weight;
  total_ += weight;
}

std::uint64_t Histogram::bucket(std::size_t i) const {
  ULC_REQUIRE(i < counts_.size(), "Histogram bucket out of range");
  return counts_[i];
}

double Histogram::ratio(std::size_t i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(bucket(i)) / static_cast<double>(total_);
}

double Histogram::cumulative_ratio(std::size_t i) const {
  if (total_ == 0) return 0.0;
  ULC_REQUIRE(i < counts_.size(), "Histogram bucket out of range");
  std::uint64_t acc = 0;
  for (std::size_t k = 0; k <= i; ++k) acc += counts_[k];
  return static_cast<double>(acc) / static_cast<double>(total_);
}

void Histogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
}

}  // namespace ulc
