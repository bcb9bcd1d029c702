// Ordinary least squares with an intercept and either the classical or the
// HC3 heteroscedasticity-consistent covariance, mirroring python3
// statsmodels' `OLS(...).fit(cov_type="HC3")` which the paper uses for
// Equation 1.
//
// The fit goes through a Householder QR of the intercept-augmented design;
// the hat diagonal h_ii needed by HC3 comes from the thin Q factor
// (h_ii = Σ_j Q_ij²), and (XᵀX)⁻¹ = R⁻¹ R⁻ᵀ.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "la/matrix.hpp"

namespace pwx::regress {

/// Covariance estimator choice.
enum class CovarianceType {
  NonRobust,  ///< classical sigma² (XᵀX)⁻¹
  HC3,        ///< sandwich with weights e_i² / (1 - h_ii)²  — the paper's choice
};

/// Full result of an OLS fit.
struct OlsResult {
  std::vector<double> beta;          ///< coefficients, intercept first
  std::vector<double> standard_error;///< per-coefficient SE under cov_type
  std::vector<double> t_statistic;   ///< beta / SE
  std::vector<double> p_value;       ///< two-sided Student-t p-values
  std::vector<double> fitted;        ///< X beta
  std::vector<double> residuals;     ///< y - X beta
  std::vector<double> leverage;      ///< hat diagonal h_ii
  la::Matrix covariance;             ///< coefficient covariance matrix
  double r_squared = 0.0;
  double adj_r_squared = 0.0;
  double sigma2 = 0.0;               ///< residual variance SSR/(n-k)
  double f_statistic = 0.0;          ///< overall regression F (non-robust)
  double f_p_value = 1.0;
  std::size_t n_observations = 0;
  std::size_t n_parameters = 0;      ///< columns incl. intercept
  CovarianceType cov_type = CovarianceType::NonRobust;

  /// Predict for a new design matrix with the same column layout as the fit
  /// input (without the intercept column, which the fit added).
  std::vector<double> predict(const la::Matrix& x) const;

  /// Human-readable summary (statsmodels-flavoured), for examples/benches.
  std::string summary(const std::vector<std::string>& names = {}) const;
};

/// Fit y ~ 1 + X. Requires n > k + 1 and full column rank; throws
/// pwx::NumericalError otherwise.
OlsResult fit_ols(const la::Matrix& x, std::span<const double> y,
                  CovarianceType cov_type = CovarianceType::NonRobust);

}  // namespace pwx::regress
