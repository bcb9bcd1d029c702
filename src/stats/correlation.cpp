#include "stats/correlation.hpp"

#include <cmath>

#include "common/error.hpp"
#include "stats/descriptive.hpp"

namespace pwx::stats {

double pearson(std::span<const double> x, std::span<const double> y) {
  PWX_REQUIRE(x.size() == y.size(), "pearson: size mismatch ", x.size(), " vs ",
              y.size());
  PWX_REQUIRE(x.size() >= 2, "pearson needs >= 2 points");
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) {
    return 0.0;
  }
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace pwx::stats
