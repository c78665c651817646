#include "util/rng.h"

#include <cmath>
#include <numbers>

#include "util/expect.h"

namespace pathsel {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
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
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_u64(std::uint64_t n) noexcept {
  PATHSEL_EXPECT(n > 0, "uniform_u64 requires n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = n * (UINT64_MAX / n);
  std::uint64_t x = next_u64();
  while (x >= limit) x = next_u64();
  return x % n;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  PATHSEL_EXPECT(lo <= hi, "uniform_int requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(span == 0 ? next_u64() : uniform_u64(span));
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

double Rng::exponential(double mean) noexcept {
  PATHSEL_EXPECT(mean > 0, "exponential requires mean > 0");
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - uniform());
}

double Rng::normal(double mean, double stddev) noexcept {
  const double u1 = 1.0 - uniform();  // (0, 1]
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

std::size_t Rng::index(std::size_t size) noexcept {
  PATHSEL_EXPECT(size > 0, "index requires a non-empty range");
  return static_cast<std::size_t>(uniform_u64(size));
}

Rng Rng::fork(std::uint64_t stream) noexcept {
  // Mix the parent's next output with the stream id through splitmix64 so
  // that children with different stream ids are decorrelated.
  std::uint64_t mix = next_u64() ^ (stream * 0x9e3779b97f4a7c15ULL + 0x853c49e6748fea9bULL);
  return Rng{splitmix64(mix)};
}

}  // namespace pathsel
