// Tests for the regularized regression extensions: ridge and LASSO.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "regress/lasso.hpp"
#include "regress/ols.hpp"
#include "regress/ridge.hpp"

namespace pwx::regress {
namespace {

la::Matrix random_design(std::size_t n, std::size_t k, Rng& rng) {
  la::Matrix x(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      x(i, j) = rng.normal();
    }
  }
  return x;
}

// ---------------------------------------------------------------- ridge

TEST(Ridge, ZeroPenaltyMatchesOls) {
  Rng rng(1);
  const la::Matrix x = random_design(60, 3, rng);
  std::vector<double> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    y[i] = 5.0 + 2.0 * x(i, 0) - x(i, 1) + rng.normal(0, 0.3);
  }
  const RidgeResult ridge = fit_ridge(x, y, 0.0);
  const OlsResult ols = fit_ols(x, y);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(ridge.beta[j], ols.beta[j], 1e-6) << j;
  }
  EXPECT_NEAR(ridge.r_squared, ols.r_squared, 1e-9);
}

TEST(Ridge, PenaltyShrinksCoefficients) {
  Rng rng(2);
  const la::Matrix x = random_design(80, 4, rng);
  std::vector<double> y(80);
  for (std::size_t i = 0; i < 80; ++i) {
    y[i] = 3.0 * x(i, 0) + 2.0 * x(i, 1) + rng.normal(0, 0.5);
  }
  const RidgeResult weak = fit_ridge(x, y, 0.01);
  const RidgeResult strong = fit_ridge(x, y, 10.0);
  double norm_weak = 0;
  double norm_strong = 0;
  for (std::size_t j = 1; j < 5; ++j) {
    norm_weak += weak.beta[j] * weak.beta[j];
    norm_strong += strong.beta[j] * strong.beta[j];
  }
  EXPECT_LT(norm_strong, norm_weak);
  // Effective dof shrinks with the penalty.
  EXPECT_LT(strong.effective_dof, weak.effective_dof);
  EXPECT_GE(strong.effective_dof, 1.0);  // intercept always counts
}

TEST(Ridge, StabilizesCollinearDesign) {
  // Two nearly identical columns: OLS coefficients explode in opposite
  // directions; ridge keeps them small and similar.
  Rng rng(3);
  const std::size_t n = 100;
  la::Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = x(i, 0) + rng.normal(0, 0.01);
    y[i] = 2.0 * x(i, 0) + rng.normal(0, 0.2);
  }
  const RidgeResult ridge = fit_ridge(x, y, 0.5);
  EXPECT_LT(std::fabs(ridge.beta[1]), 3.0);
  EXPECT_LT(std::fabs(ridge.beta[2]), 3.0);
  // Nearly symmetric split of the shared signal.
  EXPECT_NEAR(ridge.beta[1], ridge.beta[2], 0.7);
  // Still predicts well.
  EXPECT_GT(ridge.r_squared, 0.9);
}

TEST(Ridge, GcvPicksReasonablePenaltyAndGeneralizes) {
  Rng rng(4);
  const std::size_t n = 120;
  const la::Matrix x = random_design(n, 10, rng);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = x(i, 0) - 0.5 * x(i, 1) + rng.normal(0, 1.0);  // 8 pure-noise cols
  }
  const RidgeResult best = fit_ridge_gcv(x, y);
  EXPECT_GT(best.lambda, 0.0);
  // GCV score of the chosen lambda is minimal on the default grid.
  for (double lambda : {1e-4, 1e-2, 1.0, 100.0}) {
    EXPECT_LE(best.gcv, fit_ridge(x, y, lambda).gcv + 1e-9);
  }
}

TEST(Ridge, PredictMatchesTrainingFitted) {
  Rng rng(5);
  const la::Matrix x = random_design(40, 3, rng);
  std::vector<double> y(40);
  for (auto& v : y) v = rng.normal(10, 2);
  const RidgeResult fit = fit_ridge(x, y, 0.3);
  const auto pred = fit.predict(x);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_NEAR(pred[i], fit.fitted[i], 1e-12);
  }
}

TEST(Ridge, RejectsBadArguments) {
  Rng rng(6);
  const la::Matrix x = random_design(10, 2, rng);
  std::vector<double> y(10, 1.0);
  EXPECT_THROW(fit_ridge(x, y, -1.0), InvalidArgument);
  std::vector<double> bad(9, 1.0);
  EXPECT_THROW(fit_ridge(x, bad, 1.0), InvalidArgument);
}

// ---------------------------------------------------------------- lasso

TEST(Lasso, LambdaMaxZeroesEverything) {
  Rng rng(7);
  const la::Matrix x = random_design(60, 5, rng);
  std::vector<double> y(60);
  for (std::size_t i = 0; i < 60; ++i) {
    y[i] = 4.0 * x(i, 0) + rng.normal(0, 0.5);
  }
  const double lmax = lasso_lambda_max(x, y);
  const LassoResult at_max = fit_lasso(x, y, lmax * 1.0001);
  EXPECT_EQ(at_max.nonzero, 0u);
  const LassoResult below = fit_lasso(x, y, lmax * 0.8);
  EXPECT_GE(below.nonzero, 1u);
}

TEST(Lasso, TinyPenaltyApproachesOls) {
  Rng rng(8);
  const la::Matrix x = random_design(100, 3, rng);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    y[i] = 1.0 + 2.0 * x(i, 0) - 3.0 * x(i, 1) + 0.5 * x(i, 2) + rng.normal(0, 0.2);
  }
  const LassoResult lasso = fit_lasso(x, y, 1e-6);
  const OlsResult ols = fit_ols(x, y);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(lasso.beta[j], ols.beta[j], 1e-3) << j;
  }
}

TEST(Lasso, RecoversSparseSupport) {
  // 10 predictors, only 2 active: moderate penalty should find exactly them.
  Rng rng(9);
  const std::size_t n = 200;
  const la::Matrix x = random_design(n, 10, rng);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = 5.0 * x(i, 2) - 4.0 * x(i, 7) + rng.normal(0, 0.5);
  }
  const auto path = lasso_path(x, y, 30, 1e-3);
  // Find the sparsest fit with exactly two active predictors.
  for (const LassoResult& fit : path) {
    if (fit.nonzero == 2) {
      const auto active = fit.active_set();
      EXPECT_EQ(active[0], 2u);
      EXPECT_EQ(active[1], 7u);
      return;
    }
  }
  FAIL() << "no path point with exactly two active predictors";
}

TEST(Lasso, PathIsMonotoneInSparsityTrend) {
  Rng rng(10);
  const la::Matrix x = random_design(120, 8, rng);
  std::vector<double> y(120);
  for (std::size_t i = 0; i < 120; ++i) {
    y[i] = x(i, 0) + 0.8 * x(i, 1) + 0.6 * x(i, 2) + rng.normal(0, 0.5);
  }
  const auto path = lasso_path(x, y, 20, 1e-3);
  // R² non-decreasing along the path (penalty decreasing).
  for (std::size_t s = 1; s < path.size(); ++s) {
    EXPECT_GE(path[s].r_squared, path[s - 1].r_squared - 1e-9);
    EXPECT_LE(path[s].lambda, path[s - 1].lambda + 1e-12);
  }
}

TEST(Lasso, HandlesCollinearPairWithoutExploding) {
  Rng rng(11);
  const std::size_t n = 150;
  la::Matrix x(n, 2);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = x(i, 0) + rng.normal(0, 0.01);
    y[i] = 2.0 * x(i, 0) + rng.normal(0, 0.1);
  }
  const LassoResult fit = fit_lasso(x, y, 0.05);
  EXPECT_LT(std::fabs(fit.beta[1]), 5.0);
  EXPECT_LT(std::fabs(fit.beta[2]), 5.0);
  EXPECT_GT(fit.r_squared, 0.9);
}

TEST(Lasso, ConvergesWithinSweepBudget) {
  Rng rng(12);
  const la::Matrix x = random_design(100, 6, rng);
  std::vector<double> y(100);
  for (auto& v : y) v = rng.normal();
  const LassoResult fit = fit_lasso(x, y, 0.01);
  EXPECT_LT(fit.iterations, 10000u);
}

TEST(Lasso, RejectsBadArguments) {
  Rng rng(13);
  const la::Matrix x = random_design(10, 2, rng);
  std::vector<double> y(10, 1.0);
  EXPECT_THROW(fit_lasso(x, y, -0.1), InvalidArgument);
  EXPECT_THROW(lasso_path(x, y, 1, 0.5), InvalidArgument);
  EXPECT_THROW(lasso_path(x, y, 10, 1.5), InvalidArgument);
}

}  // namespace
}  // namespace pwx::regress
