// Power-model serialization.
//
// Models are saved as JSON so they can be deployed to the runtime estimator
// (or inspected by humans) independently of the training pipeline. The file
// records the feature layout, coefficients with HC standard errors, and fit
// provenance (R², observation count, covariance estimator).
#pragma once

#include <string>

#include "core/model.hpp"

namespace pwx::core {

/// Serialize a model to a JSON string / file.
std::string model_to_json(const PowerModel& model);
void save_model(const PowerModel& model, const std::string& path);

/// Deserialize. Throws pwx::IoError on malformed input, and on a file the
/// library cannot represent (either optional-term flag false, or a cov_type
/// other than nonrobust/HC3), naming the key. The loaded model predicts
/// identically; inference-only fields (residuals, leverage) are not
/// round-tripped.
PowerModel model_from_json(const std::string& json);
PowerModel load_model(const std::string& path);

}  // namespace pwx::core
