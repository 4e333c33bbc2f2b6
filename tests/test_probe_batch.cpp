// Distribution tests for the batched hidden-probe sampler: a hidden_pairs(k)
// charge must be distributed exactly like the sum of k per-probe cost draws,
// and its Binomial and Erlang building blocks must match their closed forms.
// Every test uses fixed seeds and prints its observed statistic next to its
// bound, so a failure can be read without a rerun.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "ktau/procfs.hpp"
#include "ktau/system.hpp"
#include "sim/rng.hpp"

namespace ktau {
namespace {

using meas::CpuClock;
using meas::Group;
using meas::KtauConfig;
using meas::KtauSystem;

// Kolmogorov–Smirnov critical value c(alpha) at alpha = 0.001.
constexpr double kKsC = 1.949;

// Two-sample Kolmogorov–Smirnov distance between empirical CDFs.
double ks_two_sample(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::size_t i = 0, j = 0;
  double d = 0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] <= x) ++i;
    while (j < b.size() && b[j] <= x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / a.size() -
                             static_cast<double>(j) / b.size()));
  }
  return d;
}

struct SideSums {
  std::vector<double> start, stop;
};

// One hidden_pairs(k) call per fresh system: its start/stop sums are then
// exactly the two batch charges.
SideSums batch_charges(std::uint32_t k, int samples) {
  SideSums out;
  for (int s = 0; s < samples; ++s) {
    KtauSystem sys(KtauConfig{}, 1000 + s);
    CpuClock clock;
    sys.hidden_pairs(clock, Group::Syscall, k);
    out.start.push_back(sys.start_overhead().sum());
    out.stop.push_back(sys.stop_overhead().sum());
  }
  return out;
}

// k individually drawn entry/exit probes per fresh system.
SideSums per_probe_sums(std::uint32_t k, int samples) {
  SideSums out;
  for (int s = 0; s < samples; ++s) {
    KtauSystem sys(KtauConfig{}, 900000 + s);
    const auto ev = sys.map_event("probe", Group::Syscall);
    CpuClock clock;
    for (std::uint32_t i = 0; i < k; ++i) {
      sys.entry(clock, nullptr, ev);
      sys.exit(clock, nullptr, ev);
    }
    out.start.push_back(sys.start_overhead().sum());
    out.stop.push_back(sys.stop_overhead().sum());
  }
  return out;
}

TEST(ProbeBatch, HiddenPairsMatchSumsOfPerProbeDraws) {
  // k = 150 is the perturbation runs' timer_probe_density.
  constexpr int kSamples = 2000;
  const double bound = kKsC * std::sqrt(2.0 / kSamples);
  for (const std::uint32_t k : {1u, 8u, 40u, 150u}) {
    const SideSums batch = batch_charges(k, kSamples);
    const SideSums ref = per_probe_sums(k, kSamples);
    const double d_start = ks_two_sample(batch.start, ref.start);
    const double d_stop = ks_two_sample(batch.stop, ref.stop);
    std::printf("k=%3u  KS start %.4f  stop %.4f  (bound %.4f)\n", k,
                d_start, d_stop, bound);
    EXPECT_LT(d_start, bound) << "k=" << k;
    EXPECT_LT(d_stop, bound) << "k=" << k;
  }
}

// Closed-form Erlang(n, 1) CDF: 1 - sum_{i<n} e^-x x^i / i!, each term
// formed in log space so e^-x cannot underflow for large n.
double erlang_cdf(std::uint64_t n, double x) {
  double tail = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const double id = static_cast<double>(i);
    tail += std::exp(id * std::log(x) - x - std::lgamma(id + 1));
  }
  return 1.0 - tail;
}

TEST(ProbeBatch, ErlangMatchesClosedFormCdf) {
  // n = 2000 exercises the fold that keeps the uniform product normal.
  for (const std::uint64_t n : {1u, 3u, 8u, 150u, 2000u}) {
    const int samples = n >= 2000 ? 2000 : 5000;
    sim::Rng rng(77 + n);
    std::vector<double> xs;
    for (int i = 0; i < samples; ++i) xs.push_back(sim::erlang(rng, n));
    std::sort(xs.begin(), xs.end());
    double d = 0;
    for (int i = 0; i < samples; ++i) {
      const double f = erlang_cdf(n, xs[i]);
      d = std::max({d, (i + 1.0) / samples - f,
                    f - static_cast<double>(i) / samples});
    }
    const double bound = kKsC / std::sqrt(static_cast<double>(samples));
    std::printf("n=%4llu  KS %.4f  (bound %.4f)\n",
                static_cast<unsigned long long>(n), d, bound);
    EXPECT_LT(d, bound) << "n=" << n;
  }
  sim::Rng rng(1);
  EXPECT_EQ(sim::erlang(rng, 0), 0.0);
}

double binomial_pmf(std::uint64_t n, double p, std::uint64_t x) {
  const double nd = static_cast<double>(n), xd = static_cast<double>(x);
  return std::exp(std::lgamma(nd + 1) - std::lgamma(xd + 1) -
                  std::lgamma(nd - xd + 1) + xd * std::log(p) +
                  (nd - xd) * std::log1p(-p));
}

TEST(ProbeBatch, BinomialMatchesPmf) {
  struct Case {
    std::uint64_t n;
    double p;
  };
  // n > 64 draws in chunks.  0.7^5000 underflows a double, so only chunked
  // inversion can draw n = 5000, p = 0.3; p = 0.9 takes the symmetric branch.
  for (const Case c : {Case{8, 0.045}, Case{150, 0.045}, Case{200, 0.9},
                       Case{5000, 0.3}}) {
    constexpr int kSamples = 20000;
    sim::Rng rng(4242 + c.n);
    std::vector<int> counts(c.n + 1, 0);
    for (int i = 0; i < kSamples; ++i) {
      const std::uint64_t x = sim::binomial(rng, c.n, c.p);
      ASSERT_LE(x, c.n);
      ++counts[x];
    }
    // Pool adjacent outcomes into bins expecting at least 5 samples each.
    double chi2 = 0, exp_bin = 0, obs_bin = 0;
    int bins = 0;
    for (std::uint64_t x = 0; x <= c.n; ++x) {
      exp_bin += kSamples * binomial_pmf(c.n, c.p, x);
      obs_bin += counts[x];
      if (exp_bin >= 5 || x == c.n) {
        if (exp_bin > 0) {
          chi2 += (obs_bin - exp_bin) * (obs_bin - exp_bin) / exp_bin;
          ++bins;
        }
        exp_bin = obs_bin = 0;
      }
    }
    // Wilson–Hilferty chi-square quantile at significance 0.001.
    const double df = bins - 1;
    const double h = 2.0 / (9.0 * df);
    const double bound = df * std::pow(1.0 - h + 3.090 * std::sqrt(h), 3);
    std::printf("n=%4llu p=%.3f  chi2 %.1f on %.0f df  (bound %.1f)\n",
                static_cast<unsigned long long>(c.n), c.p, chi2, df, bound);
    EXPECT_LT(chi2, bound) << "n=" << c.n << " p=" << c.p;
  }
  sim::Rng rng(5);
  EXPECT_EQ(sim::binomial(rng, 10, 0.0), 0u);
  EXPECT_EQ(sim::binomial(rng, 10, 1.0), 10u);
  EXPECT_EQ(sim::binomial(rng, 0, 0.5), 0u);
}

TEST(ProbeBatch, TotalOverheadIsTheSumOfBatchCharges) {
  // Each side's batch is truncated to whole cycles once.
  for (const std::uint32_t k : {1u, 4u, 10u, 60u, 150u, 1000u}) {
    KtauSystem sys(KtauConfig{}, 31 + k);
    CpuClock clock;
    sys.hidden_pairs(clock, Group::Irq, k);
    const double start = sys.start_overhead().sum();
    const double stop = sys.stop_overhead().sum();
    const auto start_c = static_cast<sim::Cycles>(start);
    const auto stop_c = static_cast<sim::Cycles>(stop);
    EXPECT_EQ(sys.total_overhead_cycles(), start_c + stop_c) << k;
    EXPECT_EQ(clock.cursor, sim::cycles_to_ns(start_c, clock.freq) +
                                sim::cycles_to_ns(stop_c, clock.freq))
        << k;
    EXPECT_EQ(sys.start_overhead().count(), k);
    EXPECT_EQ(sys.stop_overhead().count(), k);
    EXPECT_EQ(sys.hidden_pairs_charged(), k);
    // Every probe costs at least its minimum.
    EXPECT_GE(start, k * KtauConfig{}.overhead.start_min);
    EXPECT_GE(stop, k * KtauConfig{}.overhead.stop_min);
  }
}

TEST(ProbeBatch, DisabledGroupChargesOnlyTheFlagCheck) {
  KtauConfig cfg;
  cfg.runtime_enabled = meas::kNoGroups;
  KtauSystem sys(cfg);
  CpuClock clock;
  sys.hidden_pairs(clock, Group::Net, 50);
  EXPECT_EQ(sys.total_overhead_cycles(),
            static_cast<sim::Cycles>(50 * cfg.overhead.disabled_check));
  EXPECT_EQ(sys.start_overhead().count(), 0u);
  EXPECT_EQ(sys.hidden_pairs_charged(), 0u);
}

TEST(ProbeBatch, Table4StatsCoverMeasuredAndHiddenProbes) {
  KtauSystem sys(KtauConfig{}, 99);
  const auto ev = sys.map_event("probe", Group::Syscall);
  CpuClock clock;
  for (int i = 0; i < 200; ++i) {
    sys.entry(clock, nullptr, ev);
    sys.hidden_pairs(clock, Group::Syscall, 8);
    sys.exit(clock, nullptr, ev);
  }
  const auto& start = sys.start_overhead();
  EXPECT_EQ(start.count(), 200u + 200u * 8u);
  EXPECT_DOUBLE_EQ(start.mean(), start.sum() / start.count());
  // The mixture's mean is preserved per probe across the whole population.
  std::printf("start mean %.1f over %llu probes (model 244.4, bound 25)\n",
              start.mean(), static_cast<unsigned long long>(start.count()));
  EXPECT_NEAR(start.mean(), 244.4, 25.0);
  // Spread and extrema come from the 200 individually drawn probes.
  EXPECT_GE(start.min(), 160.0);
  EXPECT_GT(start.stddev(), 0.0);
}

TEST(ProbeBatch, BatchOnlyOverheadReportHasNoNaN) {
  // Nodes whose only charged probes are hidden pairs, folded as run_chiba
  // folds Table 4 and read as /proc/ktau's overhead report reads one node:
  // the min has no individually drawn probe behind it and reads 0.
  KtauSystem a(KtauConfig{}, 5), b(KtauConfig{}, 6);
  CpuClock clock;
  a.hidden_pairs(clock, Group::Irq, 20);
  b.hidden_pairs(clock, Group::Net, 30);
  sim::OnlineStats start, stop;
  for (const KtauSystem* sys : {&a, &b}) {
    start.merge(sys->start_overhead());
    stop.merge(sys->stop_overhead());
  }
  for (const auto& rep : {meas::overhead_report(start, stop),
                          meas::overhead_report(a.start_overhead(),
                                                a.stop_overhead())}) {
    EXPECT_GT(rep.start_count, 0u);
    EXPECT_EQ(rep.start_count, rep.stop_count);
    EXPECT_GT(rep.start_mean, KtauConfig{}.overhead.start_min);
    EXPECT_GT(rep.stop_mean, KtauConfig{}.overhead.stop_min);
    EXPECT_EQ(rep.start_min, 0.0);
    EXPECT_EQ(rep.stop_min, 0.0);
    EXPECT_EQ(rep.start_stddev, 0.0);
  }
  EXPECT_EQ(start.count(), 50u);
}

}  // namespace
}  // namespace ktau
