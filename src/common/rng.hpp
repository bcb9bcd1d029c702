// Deterministic random number generation.
//
// Every stochastic component in pwx (simulator noise, k-fold shuffling,
// scenario sampling) takes an explicit 64-bit seed so that experiments are
// reproducible. We use xoshiro256** (Blackman & Vigna) seeded through
// splitmix64; it is fast, passes BigCrush, and is trivially forkable for
// parallel streams via jump().
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace pwx {

/// splitmix64 step; used to expand a single seed into generator state.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** pseudo-random generator. Satisfies UniformRandomBitGenerator.
class Rng {
public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed (expanded through splitmix64).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) (n > 0).
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (cached pair).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal such that the *mean* of the distribution is `mean` and the
  /// coefficient of variation is `cv`. Handy for strictly positive noise.
  /// One draw of LognormalCv(cv).
  double lognormal_mean_cv(double mean, double cv);

  /// Fisher–Yates shuffle of indices [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// The log-normal family of one coefficient of variation: ½σ² and σ depend
/// on `cv` alone, so a caller drawing many values at one cv computes them
/// once here instead of once per draw.
class LognormalCv {
public:
  /// Requires cv >= 0. At cv = 0 every draw is its mean and uses no randomness.
  explicit LognormalCv(double cv);

  /// One draw with distribution mean `mean` (> 0), taking one normal from `rng`.
  double operator()(double mean, Rng& rng) const;

private:
  double cv_;
  double half_sigma2_ = 0.0;  ///< ½σ², with σ² = log(1 + cv²)
  double sigma_ = 0.0;
};

}  // namespace pwx
