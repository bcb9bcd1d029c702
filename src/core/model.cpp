#include "core/model.hpp"

#include "common/error.hpp"

namespace pwx::core {

std::vector<double> PowerModel::predict(const acquire::Dataset& dataset) const {
  return fit_.predict(build_features(dataset, spec_));
}

std::string PowerModel::summary() const { return fit_.summary(feature_names(spec_)); }

PowerModel train_model(const acquire::Dataset& dataset, const FeatureSpec& spec,
                       regress::CovarianceType cov) {
  PWX_REQUIRE(!spec.events.empty() || spec.include_dynamic_base,
              "model needs at least one dynamic term");
  regress::OlsOptions options;
  options.add_intercept = true;  // the δ·Z term
  options.cov_type = cov;
  const la::Matrix x = build_features(dataset, spec);
  return PowerModel(spec, regress::fit_ols(x, dataset.power(), options));
}

}  // namespace pwx::core
