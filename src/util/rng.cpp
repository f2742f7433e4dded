#include "util/rng.hpp"

#include <cmath>

#include "util/expects.hpp"

namespace veritas::util {

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng::result_type Rng::operator()() noexcept {
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

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Unbiased rejection sampling (Lemire-style threshold).
  const std::uint64_t threshold = (~range + 1) % range;  // (2^64 - range) % range
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return lo + static_cast<std::int64_t>(r % range);
  }
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Marsaglia polar method.
  for (;;) {
    const double u = uniform(-1.0, 1.0);
    const double v = uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      const double factor = std::sqrt(-2.0 * std::log(s) / s);
      cached_normal_ = v * factor;
      has_cached_normal_ = true;
      return u * factor;
    }
  }
}

double Rng::normal(double mean, double sigma) noexcept {
  return mean + sigma * normal();
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double rate) noexcept {
  // Inverse CDF; 1 - uniform() is in (0, 1] so log is finite.
  return -std::log(1.0 - uniform()) / rate;
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::size_t Rng::categorical(std::span<const double> weights) {
  VERITAS_EXPECTS(!weights.empty());
  double total = 0.0;
  for (const double w : weights) {
    VERITAS_EXPECTS(w >= 0.0);
    total += w;
  }
  VERITAS_EXPECTS(total > 0.0);
  const double target = uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  // Floating-point slack: return the last index with positive weight.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork(std::uint64_t stream) const noexcept {
  // Hash the current state together with the stream id; does not advance
  // *this, so forks are order-independent.
  std::uint64_t h = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^ rotl(s_[3], 43);
  std::uint64_t sm = h ^ (0xd1342543de82ef95ULL * (stream + 1));
  return Rng(splitmix64(sm));
}

}  // namespace veritas::util
