#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace pwx {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
}

Rng::result_type Rng::operator()() {
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

double Rng::uniform() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  PWX_REQUIRE(n > 0, "uniform_index needs n > 0");
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) {
      return r % n;
    }
  }
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] to keep the log finite.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal_mean_cv(double mean, double cv) { return LognormalCv(cv)(mean, *this); }

LognormalCv::LognormalCv(double cv) : cv_(cv) {
  PWX_REQUIRE(cv >= 0.0, "lognormal needs cv >= 0, got cv=", cv);
  const double sigma2 = std::log(1.0 + cv * cv);
  half_sigma2_ = 0.5 * sigma2;
  sigma_ = std::sqrt(sigma2);
}

double LognormalCv::operator()(double mean, Rng& rng) const {
  PWX_REQUIRE(mean > 0.0, "lognormal needs mean > 0, got mean=", mean, " cv=", cv_);
  if (cv_ == 0.0) {
    return mean;
  }
  return std::exp((std::log(mean) - half_sigma2_) + sigma_ * rng.normal());
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) {
    idx[i] = i;
  }
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = uniform_index(i);
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

}  // namespace pwx
