#include "regress/ols.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "la/qr.hpp"
#include "regress/special.hpp"
#include "stats/descriptive.hpp"

namespace pwx::regress {

namespace {

la::Matrix with_intercept(const la::Matrix& x) {
  la::Matrix out(x.rows(), x.cols() + 1);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    out(r, 0) = 1.0;
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out(r, c + 1) = x(r, c);
    }
  }
  return out;
}

}  // namespace

OlsResult fit_ols(const la::Matrix& x_in, std::span<const double> y,
                  const OlsOptions& options) {
  PWX_REQUIRE(x_in.rows() == y.size(), "fit_ols: X has ", x_in.rows(),
              " rows but y has ", y.size());
  const la::Matrix x = options.add_intercept ? with_intercept(x_in) : x_in;
  const std::size_t n = x.rows();
  const std::size_t k = x.cols();
  PWX_REQUIRE(n > k, "fit_ols needs more observations (", n, ") than parameters (", k,
              ")");

  const la::QrDecomposition qr(x);
  if (!qr.full_rank()) {
    throw NumericalError(
        "fit_ols: design matrix is rank deficient (perfectly collinear columns)");
  }

  OlsResult res;
  res.n_observations = n;
  res.n_parameters = k;
  res.has_intercept = options.add_intercept;
  res.cov_type = options.cov_type;
  res.beta = qr.solve(y);
  res.fitted = x.multiply(res.beta);
  res.residuals.resize(n);
  double ss_res = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    res.residuals[i] = y[i] - res.fitted[i];
    ss_res += res.residuals[i] * res.residuals[i];
  }

  // R²: centered when there's an intercept, uncentered otherwise
  // (statsmodels convention).
  double ss_tot = 0.0;
  if (options.add_intercept) {
    const double ybar = stats::mean(y);
    for (double yi : y) {
      ss_tot += (yi - ybar) * (yi - ybar);
    }
  } else {
    for (double yi : y) {
      ss_tot += yi * yi;
    }
  }
  res.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  const double df_resid = static_cast<double>(n - k);
  const double df_tot =
      options.add_intercept ? static_cast<double>(n - 1) : static_cast<double>(n);
  res.adj_r_squared = 1.0 - (1.0 - res.r_squared) * df_tot / df_resid;
  res.sigma2 = ss_res / df_resid;

  // Hat diagonal from the thin Q factor: h_ii = Σ_j Q_ij².
  const la::Matrix q = qr.thin_q();
  res.leverage.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double h = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      h += q(i, j) * q(i, j);
    }
    res.leverage[i] = h;
  }

  // (XᵀX)⁻¹ = R⁻¹ R⁻ᵀ.
  const la::Matrix r_inv = qr.r_inverse();
  const la::Matrix xtx_inv = r_inv * r_inv.transposed();

  switch (options.cov_type) {
    case CovarianceType::NonRobust: {
      res.covariance = xtx_inv;
      res.covariance *= res.sigma2;
      break;
    }
    case CovarianceType::HC0:
    case CovarianceType::HC1:
    case CovarianceType::HC2:
    case CovarianceType::HC3: {
      // Sandwich: (XᵀX)⁻¹ Xᵀ diag(w) X (XᵀX)⁻¹ with per-row weights w_i.
      std::vector<double> w(n);
      for (std::size_t i = 0; i < n; ++i) {
        const double e2 = res.residuals[i] * res.residuals[i];
        switch (options.cov_type) {
          case CovarianceType::HC0: w[i] = e2; break;
          case CovarianceType::HC1: w[i] = e2 * static_cast<double>(n) / df_resid; break;
          case CovarianceType::HC2: w[i] = e2 / (1.0 - res.leverage[i]); break;
          case CovarianceType::HC3: {
            const double denom = 1.0 - res.leverage[i];
            w[i] = e2 / (denom * denom);
            break;
          }
          default: break;
        }
      }
      // meat = Xᵀ diag(w) X.
      la::Matrix meat(k, k);
      for (std::size_t i = 0; i < n; ++i) {
        const auto row = x.row(i);
        for (std::size_t a = 0; a < k; ++a) {
          const double wa = w[i] * row[a];
          if (wa == 0.0) {
            continue;
          }
          for (std::size_t b = a; b < k; ++b) {
            meat(a, b) += wa * row[b];
          }
        }
      }
      for (std::size_t a = 0; a < k; ++a) {
        for (std::size_t b = 0; b < a; ++b) {
          meat(a, b) = meat(b, a);
        }
      }
      res.covariance = xtx_inv * meat * xtx_inv;
      break;
    }
  }

  res.standard_error.resize(k);
  res.t_statistic.resize(k);
  res.p_value.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    res.standard_error[j] = std::sqrt(std::max(0.0, res.covariance(j, j)));
    res.t_statistic[j] =
        res.standard_error[j] > 0.0 ? res.beta[j] / res.standard_error[j] : 0.0;
    res.p_value[j] = student_t_two_sided_p(res.t_statistic[j], df_resid);
  }

  // Overall F test (non-robust, against the intercept-only model).
  if (options.add_intercept && k > 1 && res.r_squared < 1.0) {
    const double df_model = static_cast<double>(k - 1);
    res.f_statistic = (res.r_squared / df_model) / ((1.0 - res.r_squared) / df_resid);
    res.f_p_value = f_distribution_sf(res.f_statistic, df_model, df_resid);
  }
  return res;
}

std::vector<double> OlsResult::predict(const la::Matrix& x) const {
  const std::size_t expected = has_intercept ? n_parameters - 1 : n_parameters;
  PWX_REQUIRE(x.cols() == expected, "predict: expected ", expected, " columns, got ",
              x.cols());
  std::vector<double> out(x.rows(), has_intercept ? beta[0] : 0.0);
  const std::size_t offset = has_intercept ? 1 : 0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out[r] += beta[c + offset] * x(r, c);
    }
  }
  return out;
}

std::string OlsResult::summary(const std::vector<std::string>& names) const {
  std::ostringstream os;
  const char* cov_name = "nonrobust";
  switch (cov_type) {
    case CovarianceType::HC0: cov_name = "HC0"; break;
    case CovarianceType::HC1: cov_name = "HC1"; break;
    case CovarianceType::HC2: cov_name = "HC2"; break;
    case CovarianceType::HC3: cov_name = "HC3"; break;
    default: break;
  }
  os << "OLS Regression Results\n";
  os << "  observations: " << n_observations << "  parameters: " << n_parameters
     << "  cov: " << cov_name << '\n';
  os << "  R-squared: " << format_double(r_squared, 4)
     << "  Adj. R-squared: " << format_double(adj_r_squared, 4) << '\n';
  if (f_statistic > 0.0) {
    os << "  F-statistic: " << format_double(f_statistic, 2)
       << "  Prob(F): " << format_double(f_p_value, 4) << '\n';
  }
  os << "  coefficients:\n";
  for (std::size_t j = 0; j < beta.size(); ++j) {
    std::string name;
    if (has_intercept && j == 0) {
      name = "const";
    } else {
      const std::size_t idx = has_intercept ? j - 1 : j;
      name = idx < names.size() ? names[idx] : "x" + std::to_string(idx);
    }
    os << "    " << name << ": " << format_double(beta[j], 6) << "  (se "
       << format_double(standard_error[j], 6) << ", t "
       << format_double(t_statistic[j], 3) << ", p " << format_double(p_value[j], 4)
       << ")\n";
  }
  return os.str();
}

}  // namespace pwx::regress
