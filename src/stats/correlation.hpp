// Correlation measures (paper Section V, Equation 2).
#pragma once

#include <span>

namespace pwx::stats {

/// Pearson correlation coefficient (Equation 2 of the paper). Returns 0 when
/// either input has zero variance (no linear relationship measurable).
double pearson(std::span<const double> x, std::span<const double> y);

}  // namespace pwx::stats
