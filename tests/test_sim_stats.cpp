// Unit tests for OnlineStats / Histogram / Cdf and time formatting / RNG
// distribution sanity.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace ktau::sim {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(OnlineStats, EmptyExtremaAreNaNNotZero) {
  // min()/max() of an empty distribution used to report 0.0 — an
  // impossible-looking but plausible value that silently poisoned
  // aggregates.  They now return NaN, and empty() makes the state testable.
  OnlineStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  s.add(-3.0);
  EXPECT_FALSE(s.empty());
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), -3.0);
}

TEST(Cdf, EmptyExtremaAreNaN) {
  const Cdf cdf{std::vector<double>{}};
  EXPECT_TRUE(cdf.empty());
  EXPECT_TRUE(std::isnan(cdf.min()));
  EXPECT_TRUE(std::isnan(cdf.max()));
}

TEST(OnlineStats, MeanVarianceMinMax) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook data set
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesCombinedStream) {
  OnlineStats a, b, combined;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10 + i;
    (i % 2 ? a : b).add(x);
    combined.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
}

TEST(OnlineStats, MergeWithEmptySides) {
  OnlineStats a, b;
  a.add(1.0);
  a.add(3.0);
  OnlineStats a_copy = a;
  a.merge(b);  // merging empty changes nothing
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a_copy);  // merging into empty copies
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(OnlineStats, BatchesCountInMeanButNotInSpread) {
  OnlineStats s;
  s.add(2.0);
  s.add(4.0);
  s.add_batch(4, 30.0);  // four samples summing to 30
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.count(), 6u);
  EXPECT_DOUBLE_EQ(s.sum(), 36.0);
  EXPECT_DOUBLE_EQ(s.mean(), 6.0);
  // Spread and extrema describe the two individual samples only.
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(OnlineStats, BatchOnlyAccumulatorIsNotEmptyButHasNoExtrema) {
  // A batch-only accumulator has a count and a mean but no min: callers
  // must test min() for NaN, since empty() is false.
  OnlineStats s;
  s.add_batch(3, 9.0);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
}

TEST(OnlineStats, MergeKeepsBatchOnlyAccumulators) {
  // Merging must not drop an accumulator that holds only batches (it has
  // no individually added samples), in either direction.
  OnlineStats measured;
  measured.add(2.0);
  measured.add(4.0);
  OnlineStats batch_only;
  batch_only.add_batch(3, 9.0);

  OnlineStats a = measured;
  a.merge(batch_only);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.sum(), 15.0);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.variance(), 1.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);

  OnlineStats b = batch_only;
  b.merge(measured);
  EXPECT_EQ(b.count(), 5u);
  EXPECT_DOUBLE_EQ(b.sum(), 15.0);
  EXPECT_DOUBLE_EQ(b.variance(), 1.0);
  EXPECT_DOUBLE_EQ(b.min(), 2.0);

  // Two batch-only sides, merged into a fresh accumulator as the Table 4
  // aggregation folds nodes.
  OnlineStats total;
  total.merge(batch_only);
  total.merge(batch_only);
  EXPECT_EQ(total.count(), 6u);
  EXPECT_DOUBLE_EQ(total.mean(), 3.0);
  EXPECT_TRUE(std::isnan(total.min()));
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);    // bin 0
  h.add(3.0);    // bin 1
  h.add(9.99);   // bin 4
  h.add(-5.0);   // clamps to bin 0
  h.add(100.0);  // clamps to bin 4
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 0u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_low(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_high(1), 4.0);
}

TEST(Histogram, RejectsDegenerateConfig) {
  EXPECT_THROW(Histogram(0.0, 10.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(5.0, 5.0, 3), std::invalid_argument);
}

TEST(Cdf, FractionAndQuantiles) {
  Cdf c({4.0, 1.0, 3.0, 2.0});  // unsorted on purpose
  EXPECT_EQ(c.size(), 4u);
  EXPECT_DOUBLE_EQ(c.fraction_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.fraction_at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(c.fraction_at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(c.fraction_at(100.0), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(c.min(), 1.0);
  EXPECT_DOUBLE_EQ(c.max(), 4.0);
}

TEST(Cdf, IsMonotonic) {
  Rng rng(7);
  Cdf c;
  for (int i = 0; i < 1000; ++i) c.add(rng.normal(50, 20));
  double prev = -1e300;
  for (double x = -50; x < 150; x += 1.0) {
    const double f = c.fraction_at(x);
    EXPECT_GE(f, prev);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
}

TEST(Cdf, SortedSamplesAscending) {
  Cdf c({3.0, 1.0, 2.0});
  const auto& s = c.sorted_samples();
  EXPECT_EQ(s, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Cdf, QuantileOnEmptyThrows) {
  Cdf c;
  EXPECT_THROW(c.quantile(0.5), std::logic_error);
}

TEST(TimeConv, CyclesNsRoundTrip) {
  constexpr FreqHz freq = 450'000'000;  // Chiba CPU
  EXPECT_EQ(cycles_to_ns(450'000'000ULL, freq), kSecond);
  EXPECT_EQ(ns_to_cycles(kSecond, freq), 450'000'000ULL);
  EXPECT_EQ(ns_to_cycles(cycles_to_ns(12345678ULL, freq), freq), 12345678ULL);
  // Large values must not overflow: 10,000 simulated seconds.
  EXPECT_EQ(cycles_to_ns(4'500'000'000'000ULL, freq), 10'000 * kSecond);
}

TEST(TimeConv, Formatting) {
  EXPECT_EQ(format_time(500), "500 ns");
  EXPECT_EQ(format_time(1'500), "1.500 us");
  EXPECT_EQ(format_time(2'500'000), "2.500 ms");
  EXPECT_EQ(format_time(3 * kSecond), "3.000 s");
  EXPECT_EQ(format_seconds(295'600 * kMillisecond), "295.60");
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    if (va != c.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformBounds) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng r(2);
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.exponential(100.0));
  EXPECT_NEAR(s.mean(), 100.0, 3.0);
  EXPECT_GT(s.min(), 0.0);
}

TEST(Rng, ShiftedExponentialHonorsMinAndMean) {
  // This is the Table-4 overhead distribution model: bounded below at the
  // minimum observed cost, long right tail.
  Rng r(3);
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.shifted_exponential(160.0, 244.4));
  EXPECT_GE(s.min(), 160.0);
  EXPECT_NEAR(s.mean(), 244.4, 3.0);
  // Stddev of a shifted exponential equals mean - min; the paper's measured
  // stddev (236) is close to that, which motivated this model.
  EXPECT_NEAR(s.stddev(), 84.4, 4.0);
}

TEST(Rng, NormalMoments) {
  Rng r(4);
  OnlineStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.normal(50.0, 5.0));
  EXPECT_NEAR(s.mean(), 50.0, 0.2);
  EXPECT_NEAR(s.stddev(), 5.0, 0.2);
}

}  // namespace
}  // namespace ktau::sim
