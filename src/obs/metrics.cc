#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace titan::obs {

Histogram::Histogram(const Options& options) : options_(options) {
  if (!(options_.min > 0.0)) throw std::invalid_argument("histogram: min must be > 0");
  if (!(options_.max > options_.min))
    throw std::invalid_argument("histogram: max must be > min");
  if (options_.buckets_per_decade < 1)
    throw std::invalid_argument("histogram: buckets_per_decade must be >= 1");

  // Edges at 10^(log10(min) + k / buckets_per_decade), k = 0, 1, ... up to
  // and including the first edge >= max (clamped to max so the grid covers
  // exactly [min, max)). Computed once, identically for every instance
  // with the same options — the determinism anchor of the whole type.
  const double lo = std::log10(options_.min);
  const double hi = std::log10(options_.max);
  const int per = options_.buckets_per_decade;
  const int steps = static_cast<int>(std::ceil((hi - lo) * per - 1e-9));
  edges_.reserve(static_cast<std::size_t>(steps) + 1);
  edges_.push_back(options_.min);
  for (int k = 1; k < steps; ++k)
    edges_.push_back(std::pow(10.0, lo + static_cast<double>(k) / per));
  edges_.push_back(options_.max);
  counts_.assign(edges_.size() + 1, 0);
}

std::size_t Histogram::bucket_index(double value) const {
  // upper_bound: first edge > value; bucket i spans [edges_[i-1], edges_[i]).
  const auto it = std::upper_bound(edges_.begin(), edges_.end(), value);
  return static_cast<std::size_t>(it - edges_.begin());
}

double Histogram::bucket_lower(std::size_t i) const {
  return i == 0 ? 0.0 : edges_[i - 1];
}

double Histogram::bucket_upper(std::size_t i) const {
  return i >= edges_.size() ? std::numeric_limits<double>::infinity() : edges_[i];
}

void Histogram::record_many(double value, std::uint64_t count) {
  if (count == 0) return;
  counts_[bucket_index(value)] += count;
  if (total_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  total_ += count;
  sum_ += value * static_cast<double>(count);
}

void Histogram::merge(const Histogram& other) {
  if (options_ != other.options_)
    throw std::invalid_argument("histogram merge: mismatched bucket layout");
  if (other.total_ == 0) return;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (total_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  total_ += other.total_;
  sum_ += other.sum_;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  sum_ = 0.0;
  min_ = max_ = 0.0;
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t c = counts_[i];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      // Interpolate inside the covering bucket. The open-ended buckets
      // substitute the recorded extremes for their infinite edge.
      double lower = bucket_lower(i);
      double upper = bucket_upper(i);
      if (i == 0) lower = min_;
      if (i + 1 == counts_.size()) upper = max_;
      lower = std::max(lower, min_);
      upper = std::min(upper, max_);
      if (upper <= lower) return lower;
      const double frac =
          std::clamp((target - static_cast<double>(cum)) / static_cast<double>(c), 0.0, 1.0);
      return lower + frac * (upper - lower);
    }
    cum += c;
  }
  return max_;
}

}  // namespace titan::obs
