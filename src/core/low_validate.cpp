#include "core/low_validate.hpp"

#include <span>

#include "common/error.hpp"
#include "core/features.hpp"
#include "regress/ols.hpp"
#include "stats/metrics.hpp"

namespace pwx::core {

namespace {

std::vector<double> gather(const std::vector<double>& values,
                           std::span<const std::size_t> indices) {
  std::vector<double> out;
  out.reserve(indices.size());
  for (std::size_t i : indices) {
    out.push_back(values[i]);
  }
  return out;
}

}  // namespace

LowoSummary leave_one_workload_out(const acquire::Dataset& dataset,
                                   const FeatureSpec& spec) {
  const std::vector<std::string> names = dataset.workload_names();
  PWX_REQUIRE(names.size() >= 2, "LOWO needs at least two workloads");

  // One design build for all holdouts; each round slices its train/validate
  // rows out of the shared matrix (row order matches filter/exclude_workloads,
  // which keep the dataset's row order).
  const la::Matrix x = build_features(dataset, spec);
  const std::vector<double> y = dataset.power();

  LowoSummary summary;
  double mape_sum = 0.0;
  std::size_t valid = 0;
  for (const std::string& name : names) {
    WorkloadHoldout holdout;
    holdout.workload = name;
    std::vector<std::size_t> train_rows;
    std::vector<std::size_t> validate_rows;
    for (std::size_t r = 0; r < dataset.size(); ++r) {
      if (dataset.rows()[r].workload == name) {
        validate_rows.push_back(r);
      } else {
        train_rows.push_back(r);
      }
    }
    holdout.rows = validate_rows.size();
    try {
      const regress::OlsResult fit =
          regress::fit_ols(x.select_rows(train_rows), gather(y, train_rows));
      const std::vector<double> predicted = fit.predict(x.select_rows(validate_rows));
      const std::vector<double> actual = gather(y, validate_rows);
      holdout.mape = stats::mape(actual, predicted);
      double bias = 0.0;
      for (std::size_t i = 0; i < actual.size(); ++i) {
        bias += (predicted[i] - actual[i]) / actual[i];
      }
      holdout.bias = bias / static_cast<double>(actual.size());
      mape_sum += holdout.mape;
      valid += 1;
      if (holdout.mape > summary.worst_mape) {
        summary.worst_mape = holdout.mape;
        summary.worst_workload = name;
      }
    } catch (const NumericalError&) {
      holdout.fit_failed = true;
    }
    summary.holdouts.push_back(std::move(holdout));
  }
  PWX_CHECK(valid > 0, "every LOWO fit failed");
  summary.mean_mape = mape_sum / static_cast<double>(valid);
  return summary;
}

}  // namespace pwx::core
