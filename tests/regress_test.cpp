// Tests for OLS regression, robust covariance estimators, special functions,
// VIF, and diagnostics. Reference values are either analytic or computed via
// an independent normal-equations path inside the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "la/cholesky.hpp"
#include "regress/diagnostics.hpp"
#include "regress/fast_fit.hpp"
#include "regress/ols.hpp"
#include "regress/special.hpp"
#include "regress/vif.hpp"

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

// ---------------------------------------------------------------- special

TEST(Special, IncompleteBetaKnownValues) {
  // I_x(1, 1) = x (uniform CDF).
  EXPECT_NEAR(incomplete_beta(1, 1, 0.3), 0.3, 1e-12);
  // I_x(2, 2) = x²(3-2x).
  EXPECT_NEAR(incomplete_beta(2, 2, 0.5), 0.5, 1e-12);
  EXPECT_NEAR(incomplete_beta(2, 2, 0.25), 0.25 * 0.25 * 2.5, 1e-12);
  // Boundaries.
  EXPECT_DOUBLE_EQ(incomplete_beta(3, 4, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(3, 4, 1.0), 1.0);
  // Symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
  EXPECT_NEAR(incomplete_beta(2.5, 4.0, 0.3),
              1.0 - incomplete_beta(4.0, 2.5, 0.7), 1e-12);
}

TEST(Special, IncompleteGammaKnownValues) {
  // P(1, x) = 1 - e^{-x}.
  EXPECT_NEAR(incomplete_gamma_p(1.0, 2.0), 1.0 - std::exp(-2.0), 1e-12);
  // P(0.5, x) = erf(sqrt(x)).
  EXPECT_NEAR(incomplete_gamma_p(0.5, 1.0), std::erf(1.0), 1e-10);
  EXPECT_DOUBLE_EQ(incomplete_gamma_p(3.0, 0.0), 0.0);
}

TEST(Special, StudentTTwoSidedKnownValues) {
  // t distribution with 1 df (Cauchy): P(|T| > 1) = 0.5.
  EXPECT_NEAR(student_t_two_sided_p(1.0, 1.0), 0.5, 1e-10);
  // Large df approximates normal: P(|Z| > 1.959964) ≈ 0.05.
  EXPECT_NEAR(student_t_two_sided_p(1.959964, 1e6), 0.05, 1e-4);
  // t = 0 gives p = 1.
  EXPECT_NEAR(student_t_two_sided_p(0.0, 10.0), 1.0, 1e-12);
}

TEST(Special, ChiSquareSurvivalKnownValues) {
  // chi²(2) survival = e^{-x/2}.
  EXPECT_NEAR(chi_square_sf(3.0, 2.0), std::exp(-1.5), 1e-12);
  EXPECT_DOUBLE_EQ(chi_square_sf(-1.0, 4.0), 1.0);
}

TEST(Special, FDistributionConsistentWithBeta) {
  // F(1, d) = T(d)²: P(F > t²) = P(|T| > t).
  const double t = 1.7;
  const double df = 9.0;
  EXPECT_NEAR(f_distribution_sf(t * t, 1.0, df), student_t_two_sided_p(t, df), 1e-10);
}

TEST(Ols, ExactFitRecoversCoefficients) {
  la::Matrix x{{1, 2}, {2, 1}, {3, 5}, {4, 2}, {5, 9}, {6, 4}};
  std::vector<double> y(6);
  for (std::size_t i = 0; i < 6; ++i) {
    y[i] = 7.0 - 2.0 * x(i, 0) + 0.5 * x(i, 1);
  }
  const OlsResult res = fit_ols(x, y);
  EXPECT_NEAR(res.beta[0], 7.0, 1e-10);
  EXPECT_NEAR(res.beta[1], -2.0, 1e-10);
  EXPECT_NEAR(res.beta[2], 0.5, 1e-10);
  EXPECT_NEAR(res.r_squared, 1.0, 1e-12);
}

TEST(Ols, MatchesNormalEquationsOnNoisyData) {
  Rng rng(101);
  const std::size_t n = 60;
  la::Matrix x = random_design(n, 3, rng);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = 1.0 + 2.0 * x(i, 0) - x(i, 1) + 0.3 * x(i, 2) + rng.normal(0, 0.5);
  }
  const OlsResult res = fit_ols(x, y);

  // Independent path: solve (XᵀX) b = Xᵀy with the intercept column added.
  la::Matrix xi(n, 4);
  for (std::size_t i = 0; i < n; ++i) {
    xi(i, 0) = 1.0;
    for (std::size_t j = 0; j < 3; ++j) {
      xi(i, j + 1) = x(i, j);
    }
  }
  const la::Matrix g = xi.gram();
  const auto xty = xi.multiply_transposed(y);
  const auto beta_ref = la::CholeskyDecomposition(g).solve(xty);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(res.beta[j], beta_ref[j], 1e-8);
  }
}

TEST(Ols, RSquaredAndAdjustedRelationship) {
  Rng rng(102);
  const std::size_t n = 40;
  la::Matrix x = random_design(n, 2, rng);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = x(i, 0) + rng.normal(0, 1.0);
  }
  const OlsResult res = fit_ols(x, y);
  EXPECT_GT(res.r_squared, 0.0);
  EXPECT_LT(res.r_squared, 1.0);
  // Adj R² = 1 - (1-R²)(n-1)/(n-k).
  const double expect_adj =
      1.0 - (1.0 - res.r_squared) * (n - 1.0) / (n - 3.0);
  EXPECT_NEAR(res.adj_r_squared, expect_adj, 1e-12);
}

TEST(Ols, ResidualsSumToZeroWithIntercept) {
  Rng rng(103);
  la::Matrix x = random_design(30, 2, rng);
  std::vector<double> y(30);
  for (auto& v : y) v = rng.normal(5, 2);
  const OlsResult res = fit_ols(x, y);
  double sum = 0;
  for (double e : res.residuals) sum += e;
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(Ols, LeverageSumsToParameterCount) {
  Rng rng(104);
  la::Matrix x = random_design(25, 3, rng);
  std::vector<double> y(25);
  for (auto& v : y) v = rng.normal();
  const OlsResult res = fit_ols(x, y);
  double trace = 0;
  for (double h : res.leverage) {
    trace += h;
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0 + 1e-12);
  }
  EXPECT_NEAR(trace, 4.0, 1e-9);  // k = 3 + intercept
}

TEST(Ols, StandardErrorsMatchClassicalFormula) {
  Rng rng(105);
  const std::size_t n = 50;
  la::Matrix x = random_design(n, 2, rng);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = 2.0 * x(i, 0) + rng.normal(0, 1.0);
  }
  const OlsResult res = fit_ols(x, y);
  // Independent: sigma² (XᵀX)⁻¹ via Cholesky.
  la::Matrix xi(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    xi(i, 0) = 1.0;
    xi(i, 1) = x(i, 0);
    xi(i, 2) = x(i, 1);
  }
  const la::Matrix cov_ref = la::CholeskyDecomposition(xi.gram()).inverse();
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(res.standard_error[j], std::sqrt(res.sigma2 * cov_ref(j, j)), 1e-8);
  }
}

TEST(Ols, PValueSmallForStrongEffectLargeForNoise) {
  Rng rng(106);
  const std::size_t n = 80;
  la::Matrix x = random_design(n, 2, rng);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = 5.0 * x(i, 0) + rng.normal(0, 1.0);  // column 1 is pure noise
  }
  const OlsResult res = fit_ols(x, y);
  EXPECT_LT(res.p_value[1], 1e-10);
  EXPECT_GT(res.p_value[2], 0.01);
}

TEST(Ols, RobustSeConvergeToClassicalUnderHomoscedasticity) {
  // With iid errors and many observations, HC3 ≈ classical.
  Rng rng(109);
  const std::size_t n = 4000;
  la::Matrix x = random_design(n, 1, rng);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = 3.0 * x(i, 0) + rng.normal(0, 1.0);
  }
  const double se_c = fit_ols(x, y, CovarianceType::NonRobust).standard_error[1];
  const double se_r = fit_ols(x, y, CovarianceType::HC3).standard_error[1];
  EXPECT_NEAR(se_r / se_c, 1.0, 0.05);
}

TEST(Ols, Hc3MatchesSandwichFormula) {
  // Intercept plus one regressor, with one high-leverage row (x = 20,
  // h ≈ 0.91) and errors that grow with x. The reference is HC3 written out
  // from the closed-form 2×2 inverse, independent of the QR path:
  //   (XᵀX)⁻¹ Xᵀ diag(eᵢ²/(1−hᵢᵢ)²) X (XᵀX)⁻¹.
  const std::vector<double> xs{0, 1, 2, 3, 4, 5, 6, 20};
  const std::vector<double> noise{0.3, -0.2, 0.5, -0.7, 0.4, -0.9, 1.1, -2.5};
  const std::size_t n = xs.size();
  la::Matrix x(n, 1);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = xs[i];
    y[i] = 1.0 + 0.5 * xs[i] + noise[i] * (0.2 + 0.1 * xs[i]);
  }

  double sx = 0, sxx = 0, sy = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += xs[i];
    sxx += xs[i] * xs[i];
    sy += y[i];
    sxy += xs[i] * y[i];
  }
  const double det = static_cast<double>(n) * sxx - sx * sx;
  // (XᵀX)⁻¹ = [[a, b], [b, d]].
  const double a = sxx / det;
  const double b = -sx / det;
  const double d = static_cast<double>(n) / det;
  const double b0 = a * sy + b * sxy;
  const double b1 = b * sy + d * sxy;
  double m00 = 0, m01 = 0, m11 = 0;  // meat Xᵀ diag(w) X
  for (std::size_t i = 0; i < n; ++i) {
    const double e = y[i] - b0 - b1 * xs[i];
    const double h = a + 2.0 * b * xs[i] + d * xs[i] * xs[i];
    const double w = e * e / ((1.0 - h) * (1.0 - h));
    m00 += w;
    m01 += w * xs[i];
    m11 += w * xs[i] * xs[i];
  }
  // (XᵀX)⁻¹ M (XᵀX)⁻¹, entry by entry.
  const double l00 = a * m00 + b * m01, l01 = a * m01 + b * m11;
  const double l10 = b * m00 + d * m01, l11 = b * m01 + d * m11;
  const double expected[2][2] = {{l00 * a + l01 * b, l00 * b + l01 * d},
                                 {l10 * a + l11 * b, l10 * b + l11 * d}};

  const OlsResult res = fit_ols(x, y, CovarianceType::HC3);
  EXPECT_NEAR(res.beta[0], b0, 1e-10 * std::fabs(b0));
  EXPECT_NEAR(res.beta[1], b1, 1e-10 * std::fabs(b1));
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(res.covariance(r, c), expected[r][c],
                  1e-10 * std::fabs(expected[r][c]))
          << "entry (" << r << "," << c << ")";
    }
  }
}

TEST(Ols, CoefficientCovarianceIsSymmetric) {
  Rng rng(110);
  la::Matrix x = random_design(25, 3, rng);
  std::vector<double> y(25);
  for (auto& v : y) v = rng.normal();
  const OlsResult res = fit_ols(x, y, CovarianceType::HC3);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(res.covariance(i, j), res.covariance(j, i), 1e-12);
    }
  }
}

TEST(Ols, PredictAppliesIntercept) {
  la::Matrix x{{0.0}, {1.0}, {2.0}, {3.0}};
  std::vector<double> y{1, 3, 5, 7};  // y = 1 + 2x
  const OlsResult res = fit_ols(x, y);
  la::Matrix nx{{10.0}};
  EXPECT_NEAR(res.predict(nx)[0], 21.0, 1e-9);
}

TEST(Ols, RankDeficientDesignThrows) {
  la::Matrix x(10, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = 2.0 * x(i, 0);
  }
  std::vector<double> y(10, 1.0);
  EXPECT_THROW(fit_ols(x, y), NumericalError);
}

TEST(Ols, ZeroVarianceColumnThrows) {
  // A constant predictor duplicates the intercept column: rank deficient,
  // must be a typed error, never NaN coefficients.
  la::Matrix x(10, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = 3.0;  // zero variance
  }
  std::vector<double> y(10, 1.0);
  EXPECT_THROW(fit_ols(x, y), NumericalError);
}

TEST(Ols, IdenticalColumnsThrow) {
  la::Matrix x(12, 2);
  for (std::size_t i = 0; i < 12; ++i) {
    x(i, 0) = 0.5 + static_cast<double>(i);
    x(i, 1) = x(i, 0);  // exact duplicate
  }
  std::vector<double> y(12, 2.0);
  EXPECT_THROW(fit_ols(x, y), NumericalError);
}

TEST(Ols, TooFewObservationsThrow) {
  la::Matrix x(3, 3);
  x(0, 0) = 1;
  x(1, 1) = 1;
  x(2, 2) = 1;
  std::vector<double> y(3, 1.0);
  EXPECT_THROW(fit_ols(x, y), InvalidArgument);  // n must exceed k+1
}

TEST(Ols, SummaryMentionsCovTypeAndNames) {
  la::Matrix x{{0.0}, {1.0}, {2.0}, {3.0}, {4.0}};
  std::vector<double> y{1, 3, 5, 7, 9.1};
  const OlsResult res = fit_ols(x, y, CovarianceType::HC3);
  const std::string s = res.summary({"slope"});
  EXPECT_NE(s.find("HC3"), std::string::npos);
  EXPECT_NE(s.find("slope"), std::string::npos);
  EXPECT_NE(s.find("const"), std::string::npos);
}

TEST(Ols, FStatisticSignificantForRealEffect) {
  Rng rng(111);
  const std::size_t n = 60;
  la::Matrix x = random_design(n, 2, rng);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = 3.0 * x(i, 0) + rng.normal(0, 0.5);
  }
  const OlsResult res = fit_ols(x, y);
  EXPECT_GT(res.f_statistic, 10.0);
  EXPECT_LT(res.f_p_value, 1e-6);
}

// ---------------------------------------------------------------- vif

TEST(Vif, OrthogonalPredictorsNearOne) {
  Rng rng(201);
  const la::Matrix x = random_design(500, 3, rng);
  for (double v : vif_all(x)) {
    EXPECT_NEAR(v, 1.0, 0.1);
  }
}

TEST(Vif, CorrelatedPairInflates) {
  Rng rng(202);
  const std::size_t n = 300;
  la::Matrix x(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = x(i, 0) + rng.normal(0, 0.1);  // rho ~ 0.995
  }
  const double v = vif_for_column(x, 0);
  // VIF = 1/(1-R²) with R² ≈ 0.99 → VIF ≈ 100.
  EXPECT_GT(v, 30.0);
}

TEST(Vif, PerfectCollinearityIsInfinite) {
  la::Matrix x(10, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i) + 1.0;
    x(i, 1) = 3.0 * x(i, 0);
  }
  EXPECT_TRUE(std::isinf(vif_for_column(x, 0)));
}

TEST(Vif, MeanVifAveragesColumns) {
  Rng rng(203);
  const la::Matrix x = random_design(400, 4, rng);
  const auto all = vif_all(x);
  double sum = 0;
  for (double v : all) sum += v;
  EXPECT_NEAR(mean_vif(x), sum / 4.0, 1e-12);
}

TEST(Vif, SingleColumnRejected) {
  const la::Matrix x(10, 1);
  EXPECT_THROW(vif_for_column(x, 0), InvalidArgument);
}

TEST(Vif, ScaleInvariance) {
  Rng rng(204);
  la::Matrix x = random_design(200, 3, rng);
  la::Matrix scaled = x;
  for (std::size_t i = 0; i < scaled.rows(); ++i) {
    scaled(i, 1) *= 1e6;
  }
  EXPECT_NEAR(vif_for_column(x, 1), vif_for_column(scaled, 1), 1e-6);
}

// ---------------------------------------------------------------- diagnostics

TEST(Diagnostics, BreuschPaganDetectsHeteroscedasticity) {
  Rng rng(301);
  const std::size_t n = 400;
  la::Matrix x(n, 1);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(0, 10);
    y[i] = 2.0 * x(i, 0) + rng.normal(0, 0.2 + 0.5 * x(i, 0));
  }
  const OlsResult fit = fit_ols(x, y);
  const auto test = breusch_pagan(x, fit.residuals);
  EXPECT_LT(test.p_value, 0.01);
}

TEST(Diagnostics, BreuschPaganAcceptsHomoscedastic) {
  Rng rng(302);
  const std::size_t n = 400;
  la::Matrix x(n, 1);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(0, 10);
    y[i] = 2.0 * x(i, 0) + rng.normal(0, 1.0);
  }
  const OlsResult fit = fit_ols(x, y);
  const auto test = breusch_pagan(x, fit.residuals);
  EXPECT_GT(test.p_value, 0.01);
}

TEST(Diagnostics, VarianceRatioGrowsWithFittedValues) {
  Rng rng(303);
  const std::size_t n = 300;
  std::vector<double> fitted(n);
  std::vector<double> resid(n);
  for (std::size_t i = 0; i < n; ++i) {
    fitted[i] = static_cast<double>(i);
    resid[i] = rng.normal(0, 0.1 + 0.01 * fitted[i]);
  }
  EXPECT_GT(variance_ratio_by_fitted(fitted, resid), 3.0);
}

TEST(Diagnostics, VarianceRatioNearOneForConstantNoise) {
  Rng rng(304);
  const std::size_t n = 3000;
  std::vector<double> fitted(n);
  std::vector<double> resid(n);
  for (std::size_t i = 0; i < n; ++i) {
    fitted[i] = static_cast<double>(i);
    resid[i] = rng.normal(0, 1.0);
  }
  EXPECT_NEAR(variance_ratio_by_fitted(fitted, resid), 1.0, 0.25);
}

// ---------------------------------------------------------------- stepwise fits

TEST(FastFit, StepwiseScoreMatchesFitOlsBitwise) {
  // StepwiseOls trial fits must replicate fit_ols on the assembled design
  // [1 | committed | candidate | trailing] exactly — greedy selection relies
  // on this to break near-ties identically to the per-trial-fit_ols path.
  Rng rng(54);
  const std::size_t m = 48;
  const la::Matrix trailing = random_design(m, 2, rng);
  const la::Matrix candidates = random_design(m, 6, rng);
  std::vector<double> y(m);
  for (std::size_t i = 0; i < m; ++i) {
    y[i] = 2.0 + candidates(i, 0) - 0.5 * candidates(i, 3) + trailing(i, 0) +
           rng.normal(0.0, 0.2);
  }

  StepwiseOls fit(trailing, y);
  std::vector<std::size_t> committed;
  for (int step = 0; step < 3; ++step) {
    for (std::size_t c = 0; c < candidates.cols(); ++c) {
      if (std::find(committed.begin(), committed.end(), c) != committed.end()) {
        continue;
      }
      // Assemble the same design fit_ols would see (without the intercept,
      // which fit_ols adds itself): committed, candidate, trailing.
      la::Matrix design(m, 0);
      for (std::size_t j : committed) {
        design.append_column(candidates.col(j));
      }
      design.append_column(candidates.col(c));
      design.append_column(trailing.col(0));
      design.append_column(trailing.col(1));
      const OlsResult full = fit_ols(design, y);
      const R2Fit trial = fit.score(candidates.col(c));
      ASSERT_TRUE(trial.full_rank);
      EXPECT_EQ(trial.r_squared, full.r_squared)
          << "step " << step << " candidate " << c;
      EXPECT_EQ(trial.adj_r_squared, full.adj_r_squared);
    }
    const std::size_t pick = static_cast<std::size_t>(step);
    ASSERT_TRUE(fit.push(candidates.col(pick)));
    committed.push_back(pick);
    EXPECT_EQ(fit.committed(), committed.size());
  }
}

TEST(FastFit, StepwisePushRejectsCollinearColumn) {
  Rng rng(55);
  const std::size_t m = 20;
  const la::Matrix trailing = random_design(m, 1, rng);
  const la::Matrix candidates = random_design(m, 2, rng);
  std::vector<double> y(m, 1.0);
  StepwiseOls fit(trailing, y);
  ASSERT_TRUE(fit.push(candidates.col(0)));
  std::vector<double> dup = candidates.col(0);
  EXPECT_FALSE(fit.push(dup));
  EXPECT_EQ(fit.committed(), 1u);  // the factor is unchanged by the rejection
  const R2Fit collinear = fit.score(dup);
  EXPECT_FALSE(collinear.full_rank);
}

TEST(FastFit, ScoreFastTracksExactScore) {
  Rng rng(56);
  const std::size_t m = 60;
  const la::Matrix trailing = random_design(m, 2, rng);
  const la::Matrix candidates = random_design(m, 8, rng);
  std::vector<double> y(m);
  for (std::size_t i = 0; i < m; ++i) {
    y[i] = 4.0 + 2.0 * candidates(i, 1) + trailing(i, 1) + rng.normal(0.0, 0.5);
  }
  StepwiseOls fit(trailing, y);
  // register_candidates expects one contiguous column-major block.
  std::vector<double> flat;
  for (std::size_t c = 0; c < candidates.cols(); ++c) {
    const auto col = candidates.col(c);
    flat.insert(flat.end(), col.begin(), col.end());
  }
  fit.register_candidates(flat, candidates.cols());
  StepwiseOls::Scratch scratch;
  for (int step = 0; step < 3; ++step) {
    for (std::size_t c = static_cast<std::size_t>(step); c < candidates.cols(); ++c) {
      const R2Fit exact = fit.score_registered(c, scratch);
      ASSERT_TRUE(exact.full_rank);
      EXPECT_EQ(exact.r_squared, fit.score(candidates.col(c)).r_squared);
      const double fast = fit.score_fast(c, scratch);
      // The deviation bound behind kFastScoreGate, with slack to spare.
      EXPECT_NEAR(fast, exact.r_squared, kFastScoreGate / 100.0);
    }
    ASSERT_TRUE(fit.push(candidates.col(static_cast<std::size_t>(step))));
  }
}

}  // namespace
}  // namespace pwx::regress
