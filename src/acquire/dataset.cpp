#include "acquire/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace pwx::acquire {

std::string DataQuality::report() const {
  TablePrinter table({"metric", "value"});
  table.row({"verdict", clean() ? "CLEAN" : "DEGRADED"});
  table.row({"configurations total", std::to_string(configurations_total)});
  table.row({"configurations quarantined",
             std::to_string(configurations_quarantined)});
  table.row({"runs attempted", std::to_string(runs_attempted)});
  table.row({"runs rejected", std::to_string(runs_rejected)});
  table.row({"runs retried", std::to_string(runs_retried)});
  table.row({"rows checked", std::to_string(sanitize.rows_checked)});
  table.row({"rows dropped", std::to_string(sanitize.rows_dropped)});
  if (sanitize.rows_dropped > 0) {
    table.row({"  power nonfinite", std::to_string(sanitize.nonfinite_power)});
    table.row({"  power implausible", std::to_string(sanitize.implausible_power)});
    table.row({"  voltage invalid", std::to_string(sanitize.invalid_voltage)});
    table.row({"  elapsed invalid", std::to_string(sanitize.invalid_elapsed)});
    table.row({"  rate invalid", std::to_string(sanitize.invalid_rate)});
  }
  for (const auto& [name, count] : fault_counts) {
    table.row({"fault " + name, std::to_string(count)});
  }
  std::ostringstream os;
  table.print(os);
  return os.str();
}

Json DataQuality::to_json() const {
  Json out;
  out["clean"] = clean();
  out["configurations_total"] = configurations_total;
  out["configurations_quarantined"] = configurations_quarantined;
  out["runs_attempted"] = runs_attempted;
  out["runs_rejected"] = runs_rejected;
  out["runs_retried"] = runs_retried;
  Json& sanitized = out["sanitize"];
  sanitized["rows_checked"] = sanitize.rows_checked;
  sanitized["rows_dropped"] = sanitize.rows_dropped;
  sanitized["nonfinite_power"] = sanitize.nonfinite_power;
  sanitized["implausible_power"] = sanitize.implausible_power;
  sanitized["invalid_voltage"] = sanitize.invalid_voltage;
  sanitized["invalid_elapsed"] = sanitize.invalid_elapsed;
  sanitized["invalid_rate"] = sanitize.invalid_rate;
  out["fault_counts"].make_object();
  for (const auto& [name, count] : fault_counts) {
    out["fault_counts"][name] = count;
  }
  return out;
}

double DataRow::rate_per_cycle(pmc::Preset preset) const {
  const auto it = counter_rates.find(preset);
  PWX_REQUIRE(it != counter_rates.end(), "row ", workload, "/", phase,
              " lacks counter ", std::string(pmc::preset_name(preset)));
  PWX_REQUIRE(frequency_ghz > 0.0, "row lacks a frequency");
  return it->second / (frequency_ghz * 1e9);
}

bool DataRow::has(pmc::Preset preset) const {
  return counter_rates.find(preset) != counter_rates.end();
}

Dataset Dataset::filter_suite(workloads::Suite suite) const {
  std::vector<DataRow> out;
  for (const DataRow& row : rows_) {
    if (row.suite == suite) {
      out.push_back(row);
    }
  }
  return Dataset(std::move(out));
}

Dataset Dataset::filter_frequency(double frequency_ghz, double tol) const {
  std::vector<DataRow> out;
  for (const DataRow& row : rows_) {
    if (std::abs(row.frequency_ghz - frequency_ghz) <= tol) {
      out.push_back(row);
    }
  }
  return Dataset(std::move(out));
}

Dataset Dataset::filter_workloads(const std::vector<std::string>& names) const {
  std::vector<DataRow> out;
  for (const DataRow& row : rows_) {
    if (std::find(names.begin(), names.end(), row.workload) != names.end()) {
      out.push_back(row);
    }
  }
  return Dataset(std::move(out));
}

Dataset Dataset::exclude_workloads(const std::vector<std::string>& names) const {
  std::vector<DataRow> out;
  for (const DataRow& row : rows_) {
    if (std::find(names.begin(), names.end(), row.workload) == names.end()) {
      out.push_back(row);
    }
  }
  return Dataset(std::move(out));
}

Dataset Dataset::select_rows(const std::vector<std::size_t>& indices) const {
  std::vector<DataRow> out;
  out.reserve(indices.size());
  for (std::size_t index : indices) {
    PWX_REQUIRE(index < rows_.size(), "row index ", index, " out of range");
    out.push_back(rows_[index]);
  }
  return Dataset(std::move(out));
}

std::vector<std::string> Dataset::workload_names() const {
  std::vector<std::string> names;
  for (const DataRow& row : rows_) {
    if (std::find(names.begin(), names.end(), row.workload) == names.end()) {
      names.push_back(row.workload);
    }
  }
  return names;
}

la::Matrix Dataset::event_rate_matrix(const std::vector<pmc::Preset>& presets) const {
  la::Matrix out(rows_.size(), presets.size());
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    for (std::size_t c = 0; c < presets.size(); ++c) {
      out(r, c) = rows_[r].rate_per_cycle(presets[c]);
    }
  }
  return out;
}

std::vector<double> Dataset::power() const {
  std::vector<double> out(rows_.size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out[i] = rows_[i].avg_power_watts;
  }
  return out;
}

std::vector<pmc::Preset> Dataset::common_presets() const {
  if (rows_.empty()) {
    return {};
  }
  std::vector<pmc::Preset> out;
  for (const auto& [preset, rate] : rows_.front().counter_rates) {
    bool everywhere = true;
    for (const DataRow& row : rows_) {
      if (!row.has(preset)) {
        everywhere = false;
        break;
      }
    }
    if (everywhere) {
      out.push_back(preset);
    }
  }
  return out;
}

DataRow row_from_profile(const trace::PhaseProfile& profile, workloads::Suite suite) {
  DataRow row;
  row.workload = profile.workload;
  row.phase = profile.phase;
  row.suite = suite;
  row.frequency_ghz = profile.frequency_ghz;
  row.threads = profile.threads;
  row.avg_power_watts = profile.avg_power_watts;
  row.avg_voltage = profile.avg_voltage;
  row.elapsed_s = profile.elapsed_s;
  row.runs_merged = profile.runs_merged;
  row.counter_rates = profile.counter_rates;
  return row;
}

HoldoutSplit split_holdout(const Dataset& dataset, double holdout_fraction,
                           std::uint64_t seed) {
  PWX_REQUIRE(holdout_fraction > 0.0 && holdout_fraction < 1.0,
              "holdout fraction must be in (0,1), got ", holdout_fraction);
  const std::size_t n = dataset.size();
  // Seeded pseudo-random permutation: key every index through splitmix64 and
  // sort by key. Ties (astronomically unlikely) break by index, so the order
  // is total and the split reproducible.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    std::uint64_t sa = seed ^ (0x9E3779B97F4A7C15ull * (a + 1));
    std::uint64_t sb = seed ^ (0x9E3779B97F4A7C15ull * (b + 1));
    const std::uint64_t ka = splitmix64(sa);
    const std::uint64_t kb = splitmix64(sb);
    return ka != kb ? ka < kb : a < b;
  });
  std::size_t holdout_count = static_cast<std::size_t>(
      std::llround(holdout_fraction * static_cast<double>(n)));
  if (n >= 2) {
    holdout_count = std::max<std::size_t>(1, std::min(holdout_count, n - 1));
  } else {
    holdout_count = std::min<std::size_t>(holdout_count, n);
  }
  std::vector<std::size_t> holdout_idx(order.begin(),
                                       order.begin() + holdout_count);
  std::vector<std::size_t> train_idx(order.begin() + holdout_count, order.end());
  // Keep original row order within each part so downstream grouping stays
  // stable regardless of the permutation.
  std::sort(holdout_idx.begin(), holdout_idx.end());
  std::sort(train_idx.begin(), train_idx.end());
  HoldoutSplit split;
  split.train = dataset.select_rows(train_idx);
  split.holdout = dataset.select_rows(holdout_idx);
  return split;
}

SanitizeReport sanitize_dataset(Dataset& dataset, double max_power_watts) {
  PWX_REQUIRE(max_power_watts > 0.0, "sanitize needs a positive power ceiling");
  SanitizeReport report;
  std::vector<DataRow> kept;
  kept.reserve(dataset.size());
  for (DataRow& row : dataset.rows()) {
    report.rows_checked += 1;
    bool valid = true;
    if (!std::isfinite(row.avg_power_watts) || row.avg_power_watts < 0.0) {
      report.nonfinite_power += 1;
      valid = false;
    } else if (row.avg_power_watts > max_power_watts) {
      report.implausible_power += 1;
      valid = false;
    }
    if (!std::isfinite(row.avg_voltage) || row.avg_voltage <= 0.0) {
      report.invalid_voltage += 1;
      valid = false;
    }
    if (!std::isfinite(row.elapsed_s) || row.elapsed_s <= 0.0) {
      report.invalid_elapsed += 1;
      valid = false;
    }
    for (const auto& [preset, rate] : row.counter_rates) {
      if (!std::isfinite(rate) || rate < 0.0) {
        report.invalid_rate += 1;
        valid = false;
        break;
      }
    }
    if (valid) {
      kept.push_back(std::move(row));
    } else {
      report.rows_dropped += 1;
    }
  }
  dataset.rows() = std::move(kept);
  return report;
}

}  // namespace pwx::acquire
