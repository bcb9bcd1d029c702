// The trained power model (Equation 1) and its training entry point.
#pragma once

#include <string>
#include <vector>

#include "acquire/dataset.hpp"
#include "core/features.hpp"
#include "regress/ols.hpp"

namespace pwx::core {

/// A fitted Equation-1 model.
class PowerModel {
public:
  PowerModel() = default;
  PowerModel(FeatureSpec spec, regress::OlsResult fit)
      : spec_(std::move(spec)), fit_(std::move(fit)) {}

  const FeatureSpec& spec() const { return spec_; }
  const regress::OlsResult& fit() const { return fit_; }

  /// Predicted power for every row of a dataset.
  std::vector<double> predict(const acquire::Dataset& dataset) const;

  /// statsmodels-style text summary with Eq.1 term names.
  std::string summary() const;

private:
  FeatureSpec spec_;
  regress::OlsResult fit_;
};

/// Train Equation 1 on a dataset; the fit's intercept is δ·Z. The default
/// follows the paper: HC3 heteroscedasticity-consistent standard errors.
PowerModel train_model(const acquire::Dataset& dataset, const FeatureSpec& spec,
                       regress::CovarianceType cov = regress::CovarianceType::HC3);

}  // namespace pwx::core
