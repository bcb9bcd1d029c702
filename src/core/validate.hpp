// k-fold cross-validation of the power model (paper Section IV-B, Table II).
#pragma once

#include <cstdint>
#include <vector>

#include "acquire/dataset.hpp"
#include "core/features.hpp"

namespace pwx::core {

/// Metrics of one fold: R²/Adj.R² of the fit on the training split (what
/// statsmodels reports per fold) and MAPE on the held-out validation split.
struct FoldMetrics {
  double r_squared = 0.0;
  double adj_r_squared = 0.0;
  double mape = 0.0;
};

/// Min/max/mean summary over folds — the paper's Table II layout.
struct CvSummary {
  std::vector<FoldMetrics> folds;
  FoldMetrics min;
  FoldMetrics max;
  FoldMetrics mean;
};

/// Run k-fold CV with random indexing (seeded). Each fold is fitted with
/// regress::fit_ols; fold metrics read only its coefficients and R². Throws
/// if any fold's training split is too small for the spec.
CvSummary k_fold_cross_validation(const acquire::Dataset& dataset,
                                  const FeatureSpec& spec, std::size_t k,
                                  std::uint64_t seed);

}  // namespace pwx::core
