#include "stats/descriptive.hpp"

#include "common/error.hpp"

namespace pwx::stats {

double mean(std::span<const double> values) {
  PWX_REQUIRE(!values.empty(), "mean of empty range");
  return kahan_sum(values) / static_cast<double>(values.size());
}

double population_variance(std::span<const double> values) {
  PWX_REQUIRE(!values.empty(), "population variance of empty range");
  const double m = mean(values);
  double sum = 0.0;
  for (double v : values) {
    sum += (v - m) * (v - m);
  }
  return sum / static_cast<double>(values.size());
}

double kahan_sum(std::span<const double> values) {
  double sum = 0.0;
  double comp = 0.0;
  for (double v : values) {
    const double y = v - comp;
    const double t = sum + y;
    comp = (t - sum) - y;
    sum = t;
  }
  return sum;
}

}  // namespace pwx::stats
