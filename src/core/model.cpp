#include "core/model.hpp"

namespace pwx::core {

std::vector<double> PowerModel::predict(const acquire::Dataset& dataset) const {
  return fit_.predict(build_features(dataset, spec_));
}

std::string PowerModel::summary() const { return fit_.summary(feature_names(spec_)); }

PowerModel train_model(const acquire::Dataset& dataset, const FeatureSpec& spec,
                       regress::CovarianceType cov) {
  // fit_ols's intercept is the δ·Z term.
  const la::Matrix x = build_features(dataset, spec);
  return PowerModel(spec, regress::fit_ols(x, dataset.power(), cov));
}

}  // namespace pwx::core
