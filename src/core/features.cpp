#include "core/features.hpp"

#include "common/error.hpp"

namespace pwx::core {

namespace {

void fill_row(la::Matrix& x, std::size_t r, const acquire::DataRow& row,
              const FeatureSpec& spec) {
  PWX_REQUIRE(row.avg_voltage > 0.0, "row ", row.workload, "/", row.phase,
              " lacks a voltage measurement");
  const double v = row.avg_voltage;
  const double f = row.frequency_ghz;
  const double v2f = v * v * f;
  std::size_t c = 0;
  for (pmc::Preset preset : spec.events) {
    double rate = 0.0;
    switch (spec.normalization) {
      case RateNormalization::PerCycle:
        rate = row.rate_per_cycle(preset);
        break;
      case RateNormalization::PerSecond:
        // Scaled to events/ns so both normalizations have comparable
        // magnitudes (conditioning, not semantics).
        rate = row.counter_rates.at(preset) / 1e9;
        break;
    }
    x(r, c++) = rate * v2f;
  }
  x(r, c++) = v2f;
  x(r, c) = v;
}

}  // namespace

la::Matrix build_features(const acquire::Dataset& dataset, const FeatureSpec& spec) {
  PWX_REQUIRE(!dataset.empty(), "cannot build features from an empty dataset");
  la::Matrix x(dataset.size(), spec.column_count());
  for (std::size_t r = 0; r < dataset.size(); ++r) {
    fill_row(x, r, dataset.rows()[r], spec);
  }
  return x;
}

std::vector<std::string> feature_names(const FeatureSpec& spec) {
  std::vector<std::string> names;
  for (pmc::Preset preset : spec.events) {
    names.push_back("E(" + std::string(pmc::preset_name(preset)) + ")*V2f");
  }
  names.emplace_back("V2f");
  names.emplace_back("V");
  return names;
}

}  // namespace pwx::core
