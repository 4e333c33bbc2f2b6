// Small statistics toolkit used across measurement and analysis layers.
//
// - OnlineStats: Welford-style streaming mean/variance/min/max; used by the
//   KTAU measurement core to track its own direct overhead (Table 4).
// - Histogram: fixed-bin histogram (Figure 3).
// - Cdf: empirical cumulative distribution over per-rank values
//   (Figures 5, 6, 8, 9, 10).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ktau::sim {

/// Streaming mean / variance / extrema (Welford's algorithm).
///
/// Samples arrive one at a time (add) or as a batch known only by its count
/// and sum (add_batch).  count(), sum() and mean() cover every sample;
/// variance(), stddev(), min() and max() describe the individually added
/// samples only, since a batch carries no spread or extrema.
class OnlineStats {
 public:
  void add(double x);

  /// Folds in `count` samples whose values are known only by their `sum`.
  void add_batch(std::uint64_t count, double sum) {
    batch_n_ += count;
    sum_ += sum;
  }

  bool empty() const { return count() == 0; }
  std::uint64_t count() const { return n_ + batch_n_; }
  double mean() const {
    if (batch_n_ != 0) return sum_ / static_cast<double>(count());
    return n_ ? mean_ : 0.0;
  }
  /// Population variance (n in the denominator) of the individually added
  /// samples; 0 for fewer than two.
  double variance() const;
  double stddev() const;
  /// Extrema of the individually added samples; NaN when there are none (a
  /// genuine minimum of 0.0 is representable, so 0.0 cannot double as the
  /// "no samples" sentinel).  Batches alone leave empty() false, so callers
  /// that would format an extremum must test it for NaN, not check empty().
  double min() const {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  double max() const {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel reduction style).
  void merge(const OnlineStats& other);

 private:
  std::uint64_t n_ = 0;        // individually added samples
  std::uint64_t batch_n_ = 0;  // samples folded in by add_batch
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range samples clamp to the
/// edge bins so no sample is dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  std::size_t bins() const { return counts_.size(); }
  std::uint64_t count(std::size_t bin) const { return counts_.at(bin); }
  std::uint64_t total() const { return total_; }
  double bin_low(std::size_t bin) const;
  double bin_high(std::size_t bin) const { return bin_low(bin + 1); }

 private:
  double lo_;
  double hi_;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> counts_;
};

/// Empirical CDF over a finite sample set (e.g. one value per MPI rank).
/// Matches the paper's "% MPI Ranks" vs value plots.
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> samples) { assign(std::move(samples)); }

  void add(double x) { sorted_ = false; samples_.push_back(x); }
  void assign(std::vector<double> samples);

  bool empty() const { return samples_.empty(); }
  std::size_t size() const { return samples_.size(); }

  /// Fraction of samples <= x, in [0, 1].
  double fraction_at(double x) const;

  /// Value at quantile q in [0, 1] (nearest-rank).
  double quantile(double q) const;

  /// NaN when empty, like OnlineStats::min()/max().
  double min() const;
  double max() const;
  double median() const { return quantile(0.5); }

  /// The sorted sample vector (ascending).  Useful for plotting the curve as
  /// (value, (i+1)/n) steps exactly as the paper's gnuplot CDFs do.
  const std::vector<double>& sorted_samples() const;

 private:
  void ensure_sorted() const;

  mutable bool sorted_ = true;
  mutable std::vector<double> samples_;
};

}  // namespace ktau::sim
