#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ktau::sim {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  // The batch part is a plain count and sum; only the individually added
  // part needs Welford's pairwise combination.
  batch_n_ += other.batch_n_;
  sum_ += other.sum_;
  if (other.n_ == 0) return;
  if (n_ == 0) {
    n_ = other.n_;
    mean_ = other.mean_;
    m2_ = other.m2_;
    min_ = other.min_;
    max_ = other.max_;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  m2_ = m2_ + other.m2_ + delta * delta * na * nb / total;
  mean_ = (mean_ * na + other.mean_ * nb) / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must be > lo");
}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto bin = static_cast<long>(std::floor((x - lo_) / width));
  bin = std::clamp<long>(bin, 0, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

double Histogram::bin_low(std::size_t bin) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin);
}

void Cdf::assign(std::vector<double> samples) {
  samples_ = std::move(samples);
  sorted_ = false;
  ensure_sorted();
}

void Cdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::fraction_at(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) /
         static_cast<double>(samples_.size());
}

double Cdf::quantile(double q) const {
  if (samples_.empty()) throw std::logic_error("Cdf::quantile on empty set");
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const auto n = samples_.size();
  // Nearest-rank: smallest index i with (i+1)/n >= q.
  std::size_t idx = 0;
  if (q > 0.0) {
    idx = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))) - 1;
    idx = std::min(idx, n - 1);
  }
  return samples_[idx];
}

double Cdf::min() const {
  ensure_sorted();
  return samples_.empty() ? std::numeric_limits<double>::quiet_NaN()
                          : samples_.front();
}

double Cdf::max() const {
  ensure_sorted();
  return samples_.empty() ? std::numeric_limits<double>::quiet_NaN()
                          : samples_.back();
}

const std::vector<double>& Cdf::sorted_samples() const {
  ensure_sorted();
  return samples_;
}

}  // namespace ktau::sim
