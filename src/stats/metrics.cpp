#include "stats/metrics.hpp"

#include <cmath>

#include "common/error.hpp"
#include "stats/descriptive.hpp"

namespace pwx::stats {

namespace {
void check_sizes(std::span<const double> a, std::span<const double> p) {
  PWX_REQUIRE(a.size() == p.size() && !a.empty(),
              "metric needs matched non-empty inputs, got ", a.size(), " and ",
              p.size());
}
}  // namespace

double mape(std::span<const double> actual, std::span<const double> predicted) {
  check_sizes(actual, predicted);
  double sum = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    PWX_REQUIRE(actual[i] != 0.0, "MAPE undefined for zero actual value at index ", i);
    sum += std::fabs((actual[i] - predicted[i]) / actual[i]);
  }
  return 100.0 * sum / static_cast<double>(actual.size());
}

double r_squared(std::span<const double> actual, std::span<const double> predicted) {
  check_sizes(actual, predicted);
  const double m = mean(actual);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ss_res += (actual[i] - predicted[i]) * (actual[i] - predicted[i]);
    ss_tot += (actual[i] - m) * (actual[i] - m);
  }
  if (ss_tot == 0.0) {
    return ss_res == 0.0 ? 1.0 : 0.0;
  }
  return 1.0 - ss_res / ss_tot;
}

}  // namespace pwx::stats
