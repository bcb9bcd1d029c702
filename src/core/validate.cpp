#include "core/validate.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "core/features.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "regress/ols.hpp"
#include "stats/kfold.hpp"
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

CvSummary k_fold_cross_validation(const acquire::Dataset& dataset,
                                  const FeatureSpec& spec, std::size_t k,
                                  std::uint64_t seed) {
  PWX_SPAN("cv.k_fold");
  static obs::Counter& c_folds =
      obs::registry().counter("cv.folds", "cross-validation folds evaluated");
  static obs::Histogram& h_fold = obs::registry().histogram(
      "cv.fold_seconds", {}, "wall time of one fold's fit + validation");
  const std::vector<stats::Fold> folds = stats::k_fold_splits(dataset.size(), k, seed);

  // Each feature row depends only on its own DataRow, so slicing the
  // full-dataset design per fold equals building it from the fold's
  // sub-dataset — bit for bit — while touching Dataset's per-row maps once.
  const la::Matrix x = build_features(dataset, spec);
  const std::vector<double> y = dataset.power();

  CvSummary summary;
  summary.min = {std::numeric_limits<double>::infinity(),
                 std::numeric_limits<double>::infinity(),
                 std::numeric_limits<double>::infinity()};
  summary.max = {-std::numeric_limits<double>::infinity(),
                 -std::numeric_limits<double>::infinity(),
                 -std::numeric_limits<double>::infinity()};

  for (const stats::Fold& fold : folds) {
    const obs::ScopedTimer fold_timer(h_fold);
    c_folds.add(1);
    const regress::OlsResult fit =
        regress::fit_ols(x.select_rows(fold.train), gather(y, fold.train));
    const std::vector<double> predicted = fit.predict(x.select_rows(fold.validate));

    FoldMetrics m;
    m.r_squared = fit.r_squared;
    m.adj_r_squared = fit.adj_r_squared;
    m.mape = stats::mape(gather(y, fold.validate), predicted);
    summary.folds.push_back(m);

    summary.min.r_squared = std::min(summary.min.r_squared, m.r_squared);
    summary.min.adj_r_squared = std::min(summary.min.adj_r_squared, m.adj_r_squared);
    summary.min.mape = std::min(summary.min.mape, m.mape);
    summary.max.r_squared = std::max(summary.max.r_squared, m.r_squared);
    summary.max.adj_r_squared = std::max(summary.max.adj_r_squared, m.adj_r_squared);
    summary.max.mape = std::max(summary.max.mape, m.mape);
    summary.mean.r_squared += m.r_squared;
    summary.mean.adj_r_squared += m.adj_r_squared;
    summary.mean.mape += m.mape;
  }
  const double n = static_cast<double>(summary.folds.size());
  summary.mean.r_squared /= n;
  summary.mean.adj_r_squared /= n;
  summary.mean.mape /= n;
  return summary;
}

}  // namespace pwx::core
