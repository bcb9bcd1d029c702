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
                  CovarianceType cov_type) {
  PWX_REQUIRE(x_in.rows() == y.size(), "fit_ols: X has ", x_in.rows(),
              " rows but y has ", y.size());
  const la::Matrix x = with_intercept(x_in);
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
  res.cov_type = cov_type;
  res.beta = qr.solve(y);
  res.fitted = x.multiply(res.beta);
  res.residuals.resize(n);
  double ss_res = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    res.residuals[i] = y[i] - res.fitted[i];
    ss_res += res.residuals[i] * res.residuals[i];
  }

  // R², centered (the fit has an intercept).
  double ss_tot = 0.0;
  const double ybar = stats::mean(y);
  for (double yi : y) {
    ss_tot += (yi - ybar) * (yi - ybar);
  }
  res.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  const double df_resid = static_cast<double>(n - k);
  const double df_tot = static_cast<double>(n - 1);
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

  if (cov_type == CovarianceType::NonRobust) {
    res.covariance = xtx_inv;
    res.covariance *= res.sigma2;
  } else {
    // HC3 sandwich: (XᵀX)⁻¹ Xᵀ diag(w) X (XᵀX)⁻¹ with w_i = e_i²/(1−h_ii)².
    // meat = Xᵀ diag(w) X.
    la::Matrix meat(k, k);
    for (std::size_t i = 0; i < n; ++i) {
      const double denom = 1.0 - res.leverage[i];
      const double w = res.residuals[i] * res.residuals[i] / (denom * denom);
      const auto row = x.row(i);
      for (std::size_t a = 0; a < k; ++a) {
        const double wa = w * row[a];
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
  if (k > 1 && res.r_squared < 1.0) {
    const double df_model = static_cast<double>(k - 1);
    res.f_statistic = (res.r_squared / df_model) / ((1.0 - res.r_squared) / df_resid);
    res.f_p_value = f_distribution_sf(res.f_statistic, df_model, df_resid);
  }
  return res;
}

std::vector<double> OlsResult::predict(const la::Matrix& x) const {
  const std::size_t expected = n_parameters - 1;
  PWX_REQUIRE(x.cols() == expected, "predict: expected ", expected, " columns, got ",
              x.cols());
  std::vector<double> out(x.rows(), beta[0]);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      out[r] += beta[c + 1] * x(r, c);
    }
  }
  return out;
}

std::string OlsResult::summary(const std::vector<std::string>& names) const {
  std::ostringstream os;
  const char* cov_name = cov_type == CovarianceType::HC3 ? "HC3" : "nonrobust";
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
    std::string name = "const";
    if (j > 0) {
      const std::size_t idx = j - 1;
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
