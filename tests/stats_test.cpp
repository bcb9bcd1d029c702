// Unit and property tests for the statistics module.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "stats/correlation.hpp"
#include "stats/descriptive.hpp"
#include "stats/kfold.hpp"
#include "stats/metrics.hpp"
#include "stats/standardize.hpp"

namespace pwx::stats {
namespace {

// ---------------------------------------------------------------- descriptive

TEST(Descriptive, MeanVarianceKnownValues) {
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_NEAR(population_variance(v), 4.0, 1e-12);
}

TEST(Descriptive, EmptyInputsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(empty), InvalidArgument);
  EXPECT_THROW(population_variance(empty), InvalidArgument);
}

TEST(Descriptive, KahanSumBeatsNaiveOnIllConditionedInput) {
  // 1 + 1e-16 added 1e6 times: naive summation loses the small terms.
  std::vector<double> v;
  v.push_back(1.0);
  for (int i = 0; i < 1000000; ++i) {
    v.push_back(1e-16);
  }
  const double s = kahan_sum(v);
  EXPECT_NEAR(s, 1.0 + 1e-10, 1e-14);
}

// ---------------------------------------------------------------- correlation

TEST(Correlation, PerfectPositiveAndNegative) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  const std::vector<double> z{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Correlation, InvariantToAffineTransform) {
  Rng rng(5);
  std::vector<double> x(100);
  std::vector<double> y(100);
  for (std::size_t i = 0; i < 100; ++i) {
    x[i] = rng.normal();
    y[i] = 0.5 * x[i] + rng.normal();
  }
  std::vector<double> xs(100);
  for (std::size_t i = 0; i < 100; ++i) {
    xs[i] = 3.0 * x[i] - 7.0;
  }
  EXPECT_NEAR(pearson(x, y), pearson(xs, y), 1e-12);
}

TEST(Correlation, ZeroVarianceGivesZero) {
  const std::vector<double> x{1, 1, 1};
  const std::vector<double> y{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Correlation, IndependentSamplesNearZero) {
  Rng rng(6);
  std::vector<double> x(20000);
  std::vector<double> y(20000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.03);
}

TEST(Correlation, SizeMismatchThrows) {
  const std::vector<double> x{1, 2};
  const std::vector<double> y{1};
  EXPECT_THROW(pearson(x, y), InvalidArgument);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, MapeKnownValue) {
  const std::vector<double> actual{100, 200};
  const std::vector<double> predicted{110, 180};
  EXPECT_NEAR(mape(actual, predicted), 10.0, 1e-12);  // (10% + 10%) / 2
}

TEST(Metrics, MapeRejectsZeroActual) {
  const std::vector<double> actual{0.0};
  const std::vector<double> predicted{1.0};
  EXPECT_THROW(mape(actual, predicted), InvalidArgument);
}

TEST(Metrics, RSquaredPerfectAndMeanPredictor) {
  const std::vector<double> actual{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(r_squared(actual, actual), 1.0);
  const std::vector<double> mean_pred(4, 2.5);
  EXPECT_NEAR(r_squared(actual, mean_pred), 0.0, 1e-12);
}

TEST(Metrics, RSquaredCanBeNegative) {
  const std::vector<double> actual{1, 2, 3};
  const std::vector<double> terrible{10, -10, 30};
  EXPECT_LT(r_squared(actual, terrible), 0.0);
}

// ---------------------------------------------------------------- kfold

class KFoldProperty : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(KFoldProperty, PartitionIsExactAndBalanced) {
  const auto [n, k] = GetParam();
  const auto folds = k_fold_splits(n, k, 42);
  ASSERT_EQ(folds.size(), k);
  std::set<std::size_t> all_validation;
  for (const Fold& fold : folds) {
    // Balanced within one element.
    EXPECT_LE(fold.validate.size(), (n + k - 1) / k);
    EXPECT_GE(fold.validate.size(), n / k);
    EXPECT_EQ(fold.train.size() + fold.validate.size(), n);
    for (std::size_t idx : fold.validate) {
      EXPECT_TRUE(all_validation.insert(idx).second) << "index in two folds";
    }
    // Train and validate are disjoint.
    std::set<std::size_t> train_set(fold.train.begin(), fold.train.end());
    for (std::size_t idx : fold.validate) {
      EXPECT_EQ(train_set.count(idx), 0u);
    }
  }
  EXPECT_EQ(all_validation.size(), n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, KFoldProperty,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{10, 2},
                                           std::pair<std::size_t, std::size_t>{10, 10},
                                           std::pair<std::size_t, std::size_t>{97, 10},
                                           std::pair<std::size_t, std::size_t>{100, 3},
                                           std::pair<std::size_t, std::size_t>{560, 10}));

TEST(KFold, SameSeedSameSplits) {
  const auto a = k_fold_splits(50, 5, 7);
  const auto b = k_fold_splits(50, 5, 7);
  for (std::size_t f = 0; f < 5; ++f) {
    EXPECT_EQ(a[f].validate, b[f].validate);
  }
}

TEST(KFold, DifferentSeedsDifferentSplits) {
  const auto a = k_fold_splits(50, 5, 7);
  const auto b = k_fold_splits(50, 5, 8);
  bool any_diff = false;
  for (std::size_t f = 0; f < 5; ++f) {
    any_diff = any_diff || (a[f].validate != b[f].validate);
  }
  EXPECT_TRUE(any_diff);
}

TEST(KFold, InvalidParametersThrow) {
  EXPECT_THROW(k_fold_splits(5, 1, 0), InvalidArgument);
  EXPECT_THROW(k_fold_splits(5, 6, 0), InvalidArgument);
}

TEST(KFold, EmptyDatasetThrows) {
  EXPECT_THROW(k_fold_splits(0, 2, 0), InvalidArgument);
  EXPECT_THROW(k_fold_splits(0, 10, 0), InvalidArgument);
}

TEST(KFold, MoreFoldsThanSamplesThrows) {
  EXPECT_THROW(k_fold_splits(3, 10, 0), InvalidArgument);
}

// Golden vectors captured from the concatenate-and-sort train-set builder
// before it was replaced by the linear complement pass: identical seeds must
// keep producing identical splits, train sets included.
TEST(KFold, GoldenSplitsAreStable) {
  const auto folds = k_fold_splits(12, 3, 42);
  ASSERT_EQ(folds.size(), 3u);
  const std::vector<std::vector<std::size_t>> validate{
      {0, 1, 8, 9}, {2, 4, 7, 11}, {3, 5, 6, 10}};
  const std::vector<std::vector<std::size_t>> train{
      {2, 3, 4, 5, 6, 7, 10, 11},
      {0, 1, 3, 5, 6, 8, 9, 10},
      {0, 1, 2, 4, 7, 8, 9, 11}};
  for (std::size_t f = 0; f < 3; ++f) {
    EXPECT_EQ(folds[f].validate, validate[f]) << "fold " << f;
    EXPECT_EQ(folds[f].train, train[f]) << "fold " << f;
  }
}

// ---------------------------------------------------------------- standardize

TEST(Standardize, TransformedColumnsHaveZeroMeanUnitVariance) {
  Rng rng(31);
  la::Matrix x(200, 3);
  for (std::size_t i = 0; i < 200; ++i) {
    x(i, 0) = rng.normal(5.0, 2.0);
    x(i, 1) = rng.normal(-1.0, 0.1);
    x(i, 2) = rng.uniform(0.0, 100.0);
  }
  const ColumnScaler scaler = ColumnScaler::fit(x);
  const la::Matrix z = scaler.transform(x);
  for (std::size_t c = 0; c < 3; ++c) {
    const auto col = z.col(c);
    EXPECT_NEAR(mean(col), 0.0, 1e-10);
    // The scaler divides by the sample (n-1) standard deviation.
    EXPECT_NEAR(population_variance(col) * 200.0 / 199.0, 1.0, 1e-10);
  }
}

TEST(Standardize, ConstantColumnGetsUnitScale) {
  la::Matrix x(5, 1);
  for (std::size_t i = 0; i < 5; ++i) {
    x(i, 0) = 7.0;
  }
  const ColumnScaler scaler = ColumnScaler::fit(x);
  EXPECT_DOUBLE_EQ(scaler.scale[0], 1.0);
  const la::Matrix z = scaler.transform(x);
  EXPECT_DOUBLE_EQ(z(0, 0), 0.0);
}

TEST(Standardize, UnscaleCoefficientsReproducesPrediction) {
  Rng rng(32);
  la::Matrix x(50, 2);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.normal(10, 3);
    x(i, 1) = rng.normal(-5, 1);
  }
  const ColumnScaler scaler = ColumnScaler::fit(x);
  const la::Matrix z = scaler.transform(x);
  const std::vector<double> beta_scaled{1.5, -0.7};
  const auto [beta, shift] = scaler.unscale_coefficients(beta_scaled);
  // z · beta_scaled == x · beta + shift
  for (std::size_t i = 0; i < 50; ++i) {
    const double via_scaled = z(i, 0) * beta_scaled[0] + z(i, 1) * beta_scaled[1];
    const double via_orig = x(i, 0) * beta[0] + x(i, 1) * beta[1] + shift;
    EXPECT_NEAR(via_scaled, via_orig, 1e-10);
  }
}

TEST(Standardize, ColumnCountMismatchThrows) {
  la::Matrix x(5, 2);
  x(0, 0) = 1;  // avoid degenerate but irrelevant here
  const ColumnScaler scaler = ColumnScaler::fit(x);
  la::Matrix y(5, 3);
  EXPECT_THROW(scaler.transform(y), InvalidArgument);
}

}  // namespace
}  // namespace pwx::stats
