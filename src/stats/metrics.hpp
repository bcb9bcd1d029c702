// Prediction-error metrics used throughout the paper's evaluation.
#pragma once

#include <span>

namespace pwx::stats {

/// Mean Absolute Percentage Error in percent: 100/n Σ |(a-p)/a|.
/// Requires all actual values nonzero.
double mape(std::span<const double> actual, std::span<const double> predicted);

/// Coefficient of determination R² = 1 - SS_res / SS_tot of predictions
/// against actuals (not the in-sample OLS R²).
double r_squared(std::span<const double> actual, std::span<const double> predicted);

}  // namespace pwx::stats
