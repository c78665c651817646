// Deterministic random number generation.
//
// Every stochastic component of the library draws from an explicitly seeded
// Rng so that datasets, topologies and experiments are reproducible
// bit-for-bit across runs and platforms.  The generator is xoshiro256++
// seeded through splitmix64 (the construction recommended by its authors);
// we do not use <random> engines because their distributions are not
// guaranteed to produce identical streams across standard library
// implementations.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace pathsel {

/// splitmix64 step; used for seeding and for cheap hash mixing.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ PRNG with portable, reproducible distribution sampling.
class Rng {
 public:
  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed) noexcept;

  /// Next raw 64-bit output.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n).  Requires n > 0.
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// True with probability p (p clamped to [0, 1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Exponential with the given mean (inverse-CDF method).  Requires mean > 0.
  [[nodiscard]] double exponential(double mean) noexcept;

  /// Normal via Box-Muller (one value per call; no caching, for determinism).
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Log-normal: exp(N(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Picks a uniformly random element index of a non-empty range size.
  [[nodiscard]] std::size_t index(std::size_t size) noexcept;

  /// Derives an independent child generator; `stream` disambiguates children
  /// with the same parent (e.g. per-host or per-link streams).
  [[nodiscard]] Rng fork(std::uint64_t stream) noexcept;

  /// The full 256-bit generator state, for checkpointing.  restore() puts a
  /// generator back at exactly that draw: the restored stream continues
  /// bit-identically to the uninterrupted one.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void restore(const std::array<std::uint64_t, 4>& state) noexcept {
    s_[0] = state[0];
    s_[1] = state[1];
    s_[2] = state[2];
    s_[3] = state[3];
  }

  /// Fisher-Yates shuffle of an index span.
  template <typename T>
  void shuffle(std::span<T> items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = index(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace pathsel
