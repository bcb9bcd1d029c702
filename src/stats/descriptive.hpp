// Descriptive statistics over double sequences.
#pragma once

#include <span>

namespace pwx::stats {

/// Arithmetic mean; requires a non-empty input.
double mean(std::span<const double> values);

/// Population variance (n denominator).
double population_variance(std::span<const double> values);

/// Sum with Kahan compensation — phase-profile averaging adds many samples of
/// similar magnitude, where naive summation loses precision.
double kahan_sum(std::span<const double> values);

}  // namespace pwx::stats
