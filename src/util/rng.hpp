// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library takes an explicit seed so that
// experiments are reproducible bit-for-bit across runs and platforms. The
// generator is xoshiro256** (public domain, Blackman & Vigna) seeded via
// splitmix64, which avoids the zero-state pathology of naive seeding.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace veritas::util {

/// splitmix64 step: used for seeding and for cheap stateless hashing of
/// (seed, stream) pairs into independent generator states. Inline: the
/// TCP simulator draws one per RTT round.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic random number generator (xoshiro256**).
///
/// Satisfies UniformRandomBitGenerator so it can be used with <random>
/// distributions, but the methods below are preferred: they are stable
/// across standard library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator. Equal seeds produce equal streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Marsaglia polar method (stable across platforms).
  double normal() noexcept;

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma) noexcept;

  /// Log-normal: exp(Normal(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept;

  /// Exponential with the given rate (> 0).
  double exponential(double rate) noexcept;

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) noexcept;

  /// Samples an index in [0, weights.size()) proportional to weights.
  /// Weights must be non-negative with a positive sum.
  std::size_t categorical(std::span<const double> weights);

  /// Derives an independent child generator for a named sub-stream.
  /// fork(i) != fork(j) for i != j, and forking does not perturb *this.
  Rng fork(std::uint64_t stream) const noexcept;

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Fisher-Yates shuffle with the library Rng (std::shuffle is not
/// reproducible across standard libraries).
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    using std::swap;
    swap(v[i - 1], v[j]);
  }
}

}  // namespace veritas::util
