// Observability metrics: fixed-bucket log-scale histograms.
//
// Design rules (docs/observability.md has the full contract):
//
//  * Bucket edges are a pure function of Histogram::Options — every
//    instance built from the same options has byte-identical edges, so
//    histograms recorded independently (one per sim shard) merge into
//    bit-identical counts regardless of how work was threaded.
//  * Counts are integers; merging adds them, so merged counts are exactly
//    invariant to merge order. The floating `sum` is also exact (and thus
//    order-invariant) whenever the recorded values are integers below
//    2^53; for wall-clock samples it is reporting-only.
//  * Nothing in this header reads a clock. Wall-clock values are recorded
//    by the caller, and whether a metric may feed a determinism checksum
//    is decided by what was recorded into it, not by this layer: a
//    histogram of call durations is deterministic, a histogram of
//    assignment latencies is not and must be masked (see
//    sim::SimResult::zero_wallclock) before bitwise compares.
//
// Histogram is not thread-safe; the intended pattern is one instance per
// shard/worker, merged single-threaded in a fixed order.
#pragma once

#include <cstdint>
#include <vector>

namespace titan::obs {

// Log-scale histogram with fixed, deterministic bucket edges.
//
// Layout: one underflow bucket for values < min, `buckets_per_decade`
// log10-spaced buckets per decade across [min, max), and one overflow
// bucket for values >= max. Bucket membership is resolved by binary search
// on the precomputed edges, so a value maps to exactly one bucket
// (half-open [lower, upper)) on every platform the same way the edges
// were computed.
class Histogram {
 public:
  struct Options {
    double min = 1e-3;  // lower edge of the first log bucket; must be > 0
    double max = 1e6;   // values >= max land in the overflow bucket
    int buckets_per_decade = 8;
    friend bool operator==(const Options&, const Options&) = default;
  };

  Histogram() : Histogram(Options{}) {}
  // Throws std::invalid_argument on min <= 0, max <= min, or
  // buckets_per_decade < 1.
  explicit Histogram(const Options& options);

  void record(double value) { record_many(value, 1); }
  void record_many(double value, std::uint64_t count);

  // Adds `other`'s counts/sum and widens min/max. Throws
  // std::invalid_argument when the bucket layouts differ — merged counts
  // are only meaningful bucket-by-bucket.
  void merge(const Histogram& other);

  // Zeroes every count and the sum/min/max, keeping the bucket layout:
  // the masking primitive for wall-clock histograms.
  void reset();

  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] std::uint64_t total_count() const { return total_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
  }
  [[nodiscard]] double min() const { return total_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return total_ == 0 ? 0.0 : max_; }

  // Quantile estimate by linear interpolation inside the covering bucket
  // (exact at q=1, which returns the recorded max). Deterministic in the
  // counts. Returns 0 on an empty histogram; q is clamped to [0, 1].
  [[nodiscard]] double quantile(double q) const;

  // Buckets: index 0 = underflow, 1..num_log_buckets = the log grid,
  // last = overflow.
  [[nodiscard]] std::size_t num_buckets() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const { return counts_[i]; }
  // Edge values of bucket i as rendered in reports: the underflow bucket
  // reports [0, min), the overflow [max, +inf) — quantile() substitutes
  // the recorded extremes when interpolating inside them.
  [[nodiscard]] double bucket_lower(std::size_t i) const;
  [[nodiscard]] double bucket_upper(std::size_t i) const;
  [[nodiscard]] std::size_t bucket_index(double value) const;

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  Options options_;
  std::vector<double> edges_;         // ascending; edges_.front() == min
  std::vector<std::uint64_t> counts_; // edges_.size() + 1 buckets
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;  // valid only when total_ > 0
  double max_ = 0.0;
};

}  // namespace titan::obs
