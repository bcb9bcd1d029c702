#include "regress/vif.hpp"

#include <limits>

#include "common/error.hpp"
#include "la/qr.hpp"
#include "regress/ols.hpp"

namespace pwx::regress {

double vif_for_column(const la::Matrix& x, std::size_t j) {
  PWX_REQUIRE(j < x.cols(), "vif: column ", j, " out of range");
  PWX_REQUIRE(x.cols() >= 2, "vif needs at least two predictors");

  // Build the auxiliary design: all columns except j.
  std::vector<std::size_t> others;
  others.reserve(x.cols() - 1);
  for (std::size_t c = 0; c < x.cols(); ++c) {
    if (c != j) {
      others.push_back(c);
    }
  }
  const la::Matrix design = x.select_columns(others);
  const std::vector<double> target = x.col(j);

  try {
    const OlsResult aux = fit_ols(design, target);
    if (aux.r_squared >= 1.0) {
      return std::numeric_limits<double>::infinity();
    }
    return 1.0 / (1.0 - aux.r_squared);
  } catch (const NumericalError&) {
    // The other predictors are themselves collinear: predictor j is trivially
    // inflated beyond measurement.
    return std::numeric_limits<double>::infinity();
  }
}

std::vector<double> vif_all(const la::Matrix& x) {
  std::vector<double> out(x.cols());
  for (std::size_t j = 0; j < x.cols(); ++j) {
    out[j] = vif_for_column(x, j);
  }
  return out;
}

double mean_vif(const la::Matrix& x) {
  const std::vector<double> v = vif_all(x);
  double sum = 0.0;
  for (double value : v) {
    sum += value;
  }
  return sum / static_cast<double>(v.size());
}

std::vector<double> vif_all_qr(const la::Matrix& x) {
  const std::size_t m = x.rows();
  const std::size_t k = x.cols();
  PWX_REQUIRE(k >= 2, "vif needs at least two predictors");
  PWX_REQUIRE(m > k + 1, "vif_all_qr needs more rows (", m, ") than predictors + 1 (",
              k + 1, ")");

  // Intercept-augmented design W = [1 | x].
  la::Matrix w(m, k + 1);
  for (std::size_t r = 0; r < m; ++r) {
    w(r, 0) = 1.0;
    for (std::size_t c = 0; c < k; ++c) {
      w(r, c + 1) = x(r, c);
    }
  }
  const la::QrDecomposition qr(w);
  if (!qr.full_rank()) {
    return std::vector<double>(k, std::numeric_limits<double>::infinity());
  }

  // [(WᵀW)⁻¹]_jj = Σ_l (R⁻¹)_{jl}² — row sums of squares of R⁻¹.
  const la::Matrix r_inv = qr.r_inverse();
  std::vector<double> out(k);
  for (std::size_t j = 0; j < k; ++j) {
    double diag = 0.0;
    for (std::size_t l = j + 1; l <= k; ++l) {
      diag += r_inv(j + 1, l) * r_inv(j + 1, l);
    }
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
      sum += x(r, j);
      sum_sq += x(r, j) * x(r, j);
    }
    const double tss = sum_sq - sum * sum / static_cast<double>(m);
    out[j] = tss > 0.0 ? tss * diag : std::numeric_limits<double>::infinity();
    // 1/diag is the RSS of regressing column j on the others; RSS ≈ 0 within
    // the factor's rank tolerance was already mapped to +inf above.
  }
  return out;
}

double mean_vif_qr(const la::Matrix& x) {
  const std::vector<double> v = vif_all_qr(x);
  double sum = 0.0;
  for (double value : v) {
    sum += value;
  }
  return sum / static_cast<double>(v.size());
}

}  // namespace pwx::regress
