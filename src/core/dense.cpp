#include "core/dense.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "core/estimator.hpp"

namespace pwx::core {

ModelLayout::ModelLayout(const PowerModel& model) {
  const FeatureSpec& spec = model.spec();
  const regress::OlsResult& fit = model.fit();
  const std::size_t expected = spec.column_count() + 1;
  PWX_REQUIRE(fit.beta.size() == expected, "model fit has ", fit.beta.size(),
              " coefficients, spec expects ", expected);

  events_ = spec.events;
  per_cycle_ = spec.normalization == RateNormalization::PerCycle;

  // Flatten the coefficient vector: [δ][α_n ...][β][γ].
  intercept_ = fit.beta[0];
  coef_.assign(fit.beta.begin() + 1, fit.beta.end() - 2);
  dyn_coef_ = fit.beta[expected - 2];
  static_coef_ = fit.beta[expected - 1];
}

DenseSample ModelLayout::make_sample() const {
  DenseSample s;
  s.counts.resize(slots(), 0.0);
  return s;
}

void ModelLayout::to_dense(const CounterSample& sample, DenseSample& out) const {
  out.elapsed_s = sample.elapsed_s;
  out.frequency_ghz = sample.frequency_ghz;
  out.voltage = sample.voltage;
  out.counts.resize(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const auto it = sample.counts.find(events_[i]);
    PWX_REQUIRE(it != sample.counts.end(), "sample lacks event ",
                std::string(pmc::preset_name(events_[i])));
    out.counts[i] = it->second;
  }
}

void ModelLayout::to_dense_guarded(const CounterSample& sample,
                                   DenseSample& out) const {
  out.elapsed_s = sample.elapsed_s;
  out.frequency_ghz = sample.frequency_ghz;
  out.voltage = sample.voltage;
  out.counts.resize(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const auto it = sample.counts.find(events_[i]);
    out.counts[i] = it == sample.counts.end()
                        ? std::numeric_limits<double>::quiet_NaN()
                        : it->second;
  }
}

double ModelLayout::predict(const DenseSample& sample) const {
  PWX_REQUIRE(sample.counts.size() == events_.size(), "dense sample has ",
              sample.counts.size(), " counts, layout has ", events_.size(),
              " slots");
  // Operation-for-operation replay of build_features + OlsResult::predict
  // (rate, per-cycle normalization, x = rate·V²f, accumulate in column
  // order) so the result is bit-identical to PowerModel::predict.
  const double v = sample.voltage;
  const double f = sample.frequency_ghz;
  const double v2f = v * v * f;
  double acc = intercept_;
  for (std::size_t i = 0; i < coef_.size(); ++i) {
    const double rate = sample.counts[i] / sample.elapsed_s;
    const double per = per_cycle_ ? rate / (f * 1e9) : rate / 1e9;
    acc += coef_[i] * (per * v2f);
  }
  acc += dyn_coef_ * v2f;
  acc += static_coef_ * v;
  return acc;
}

std::optional<double> ModelLayout::try_predict(const DenseSample& sample) const {
  const auto finite_positive = [](double x) { return std::isfinite(x) && x > 0.0; };
  if (!finite_positive(sample.elapsed_s) ||
      !finite_positive(sample.frequency_ghz) ||
      !finite_positive(sample.voltage) ||
      sample.counts.size() != events_.size()) {
    return std::nullopt;
  }
  for (const double c : sample.counts) {
    if (!std::isfinite(c) || c < 0.0) {
      return std::nullopt;
    }
  }
  const double raw = predict(sample);
  if (!std::isfinite(raw)) {
    return std::nullopt;
  }
  return raw;
}

}  // namespace pwx::core
