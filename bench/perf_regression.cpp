// Performance microbenches for the regression stack: QR, OLS fits with the
// different covariance estimators, and VIF computation.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "la/qr.hpp"
#include "regress/ols.hpp"
#include "regress/vif.hpp"

namespace {

using namespace pwx;

la::Matrix random_design(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix x(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      x(i, j) = rng.normal();
    }
  }
  return x;
}

std::vector<double> random_target(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> y(n);
  for (double& v : y) {
    v = rng.normal(100.0, 10.0);
  }
  return y;
}

void BM_QrFactorization(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const la::Matrix x = random_design(n, k, 1);
  for (auto _ : state) {
    la::QrDecomposition qr(x);
    benchmark::DoNotOptimize(qr.full_rank());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QrFactorization)->Args({128, 9})->Args({560, 9})->Args({2048, 9})->Args({560, 32});

void BM_OlsFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const la::Matrix x = random_design(n, 8, 2);
  const std::vector<double> y = random_target(n, 3);
  const auto cov_type = static_cast<regress::CovarianceType>(state.range(1));
  for (auto _ : state) {
    const auto fit = regress::fit_ols(x, y, cov_type);
    benchmark::DoNotOptimize(fit.r_squared);
  }
}
BENCHMARK(BM_OlsFit)
    ->Args({560, static_cast<int>(regress::CovarianceType::NonRobust)})
    ->Args({560, static_cast<int>(regress::CovarianceType::HC3)})
    ->Args({4096, static_cast<int>(regress::CovarianceType::HC3)});

void BM_MeanVif(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const la::Matrix x = random_design(560, k, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(regress::mean_vif(x));
  }
}
BENCHMARK(BM_MeanVif)->Arg(4)->Arg(6)->Arg(12);

}  // namespace
