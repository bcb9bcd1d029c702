#include "regress/diagnostics.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "regress/ols.hpp"
#include "regress/special.hpp"
#include "stats/descriptive.hpp"

namespace pwx::regress {

HeteroscedasticityTest breusch_pagan(const la::Matrix& x,
                                     std::span<const double> residuals) {
  PWX_REQUIRE(x.rows() == residuals.size(), "breusch_pagan: size mismatch");
  const std::size_t n = x.rows();
  std::vector<double> e2(n);
  for (std::size_t i = 0; i < n; ++i) {
    e2[i] = residuals[i] * residuals[i];
  }
  const OlsResult aux = fit_ols(x, e2);

  HeteroscedasticityTest out;
  out.df = static_cast<double>(x.cols());
  out.lm_statistic = static_cast<double>(n) * aux.r_squared;
  out.p_value = chi_square_sf(out.lm_statistic, out.df);
  return out;
}

double variance_ratio_by_fitted(std::span<const double> fitted,
                                std::span<const double> residuals) {
  PWX_REQUIRE(fitted.size() == residuals.size() && fitted.size() >= 6,
              "variance ratio needs >= 6 matched points");
  const std::size_t n = fitted.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return fitted[a] < fitted[b]; });

  const std::size_t third = n / 3;
  std::vector<double> low;
  std::vector<double> high;
  low.reserve(third);
  high.reserve(third);
  for (std::size_t i = 0; i < third; ++i) {
    low.push_back(residuals[order[i]]);
    high.push_back(residuals[order[n - 1 - i]]);
  }
  const double v_low = stats::population_variance(low);
  const double v_high = stats::population_variance(high);
  if (v_low == 0.0) {
    return v_high == 0.0 ? 1.0 : std::numeric_limits<double>::infinity();
  }
  return v_high / v_low;
}

}  // namespace pwx::regress
