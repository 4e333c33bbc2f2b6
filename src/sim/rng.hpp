// Deterministic random number generation for the simulator.
//
// Every experiment in the reproduction is seeded so runs are bit-identical
// across invocations; we therefore carry our own small, well-understood
// generators instead of depending on implementation-defined std::random
// distributions (libstdc++/libc++ may produce different streams for the same
// seed, which would break cross-platform determinism of EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <cmath>

namespace ktau::sim {

/// SplitMix64 — used to seed Xoshiro and for cheap hashing of ids to seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 by Blackman & Vigna; public domain reference algorithm.
/// Fast, high-quality, and fully deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
  }

  /// Uniform 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t next_below(std::uint64_t n) {
    // Lemire's multiply-shift rejection-free variant is unnecessary for
    // simulation purposes; modulo bias at 64 bits is negligible here.
    return next_u64() % n;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    return lo + next_below(hi - lo + 1);
  }

  /// True with probability p.
  bool bernoulli(double p) { return next_double() < p; }

  /// Exponentially distributed value with the given mean.
  double exponential(double mean) {
    double u = next_double();
    // Guard against log(0).
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  /// Normally distributed value (Box–Muller; uses one pair per call for
  /// reproducibility independent of call interleaving).
  double normal(double mean, double stddev) {
    double u1 = next_double();
    double u2 = next_double();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * mag * std::cos(6.28318530717958647692 * u2);
  }

  /// Log-normal with the given *underlying* normal mu/sigma.
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  /// Shifted-exponential sample: min + Exp(mean - min).  This matches the
  /// long-tailed, bounded-below shape of KTAU's direct measurement overhead
  /// distribution (Table 4: start mean 244.4 cycles, min 160; large stddev).
  double shifted_exponential(double min, double mean) {
    return min + exponential(mean - min);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
};

/// Binomial(n, p): the number of successes in n Bernoulli(p) trials, drawn
/// exactly by inversion with one uniform per chunk of at most 64 trials.
/// Counting the rarer outcome (p <= 1/2) keeps a chunk's zero-success mass
/// (1-p)^64 >= 2^-64, so no pmf term underflows, whatever n is.
inline std::uint64_t binomial(Rng& rng, std::uint64_t n, double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - binomial(rng, n, 1.0 - p);
  const double q = 1.0 - p;
  const double odds = p / q;
  std::uint64_t total = 0;
  while (n > 0) {
    const std::uint64_t chunk = n < 64 ? n : 64;
    n -= chunk;
    // f = q^chunk = P(X = 0) for this chunk, by squaring.
    double f = 1.0;
    double base = q;
    for (std::uint64_t e = chunk; e != 0; e >>= 1) {
      if ((e & 1) != 0) f *= base;
      base *= base;
    }
    // Walk the pmf upward until the uniform falls inside P(X = x).
    double u = rng.next_double();
    std::uint64_t x = 0;
    while (u >= f && x < chunk) {
      u -= f;
      ++x;
      f *= odds * static_cast<double>(chunk - x + 1) / static_cast<double>(x);
    }
    total += x;
  }
  return total;
}

/// Gamma(n, 1) for integer shape n (the Erlang distribution): the sum of n
/// unit-mean exponentials, drawn exactly as -log of a product of n uniforms
/// on (0, 1] with a single log.  The product is folded into the sum before
/// it can leave the normal range, so any n works.  n = 0 gives 0.
inline double erlang(Rng& rng, std::uint64_t n) {
  if (n == 0) return 0.0;
  double sum = 0.0;
  double prod = 1.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    prod *= static_cast<double>((rng.next_u64() >> 11) + 1) * 0x1.0p-53;
    if (prod < 0x1.0p-960) {
      sum -= std::log(prod);
      prod = 1.0;
    }
  }
  return sum - std::log(prod);
}

}  // namespace ktau::sim
