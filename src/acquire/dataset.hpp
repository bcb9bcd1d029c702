// Regression datasets assembled from merged phase profiles.
//
// One DataRow is one experiment point: a (workload, phase, frequency,
// thread-count) combination with its average power, average voltage, and
// per-second counter rates merged over all multiplexed runs. The Dataset
// offers the filters and projections the modeling core needs (per-cycle
// event-rate matrices, train/validate splits by row or by workload).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "la/matrix.hpp"
#include "pmc/events.hpp"
#include "trace/phase_profile.hpp"
#include "workloads/character.hpp"

namespace pwx::acquire {

/// One merged experiment point.
struct DataRow {
  std::string workload;
  std::string phase;
  workloads::Suite suite = workloads::Suite::Roco2;
  double frequency_ghz = 0;
  std::size_t threads = 0;
  double avg_power_watts = 0;
  double avg_voltage = 0;
  double elapsed_s = 0;
  std::size_t runs_merged = 1;
  std::map<pmc::Preset, double> counter_rates;  ///< events per second

  /// Events per nominal core cycle (rate / f) — the paper's E_n.
  double rate_per_cycle(pmc::Preset preset) const;
  bool has(pmc::Preset preset) const;
};

/// What dataset sanitization rejected and why.
struct SanitizeReport {
  std::size_t rows_checked = 0;
  std::size_t rows_dropped = 0;
  std::size_t nonfinite_power = 0;      ///< NaN/Inf or negative measured power
  std::size_t implausible_power = 0;    ///< beyond the physical ceiling
  std::size_t invalid_voltage = 0;      ///< NaN/Inf or non-positive voltage
  std::size_t invalid_elapsed = 0;      ///< NaN/Inf or non-positive elapsed time
  std::size_t invalid_rate = 0;         ///< NaN/Inf or negative counter rate

  bool clean() const { return rows_dropped == 0; }
};

/// Acquisition-quality provenance attached to a campaign's Dataset: how many
/// runs misbehaved, what was retried or quarantined, and what sanitization
/// dropped — the "is this data trustworthy" report a fleet operator reads
/// before deploying a model trained on it.
struct DataQuality {
  std::size_t configurations_total = 0;
  std::size_t configurations_quarantined = 0;  ///< dropped after retries failed
  std::size_t runs_attempted = 0;              ///< every engine execution
  std::size_t runs_rejected = 0;               ///< failed or fault-flagged runs
  std::size_t runs_retried = 0;                ///< re-executions with derived seeds
  std::map<std::string, std::size_t> fault_counts;  ///< injected faults by kind
  SanitizeReport sanitize;

  bool clean() const {
    return configurations_quarantined == 0 && runs_rejected == 0 &&
           sanitize.clean();
  }
  /// Aligned metric/value table (common/table formatting).
  std::string report() const;
  /// Every field as a JSON object, fault counts keyed by kind name.
  Json to_json() const;
};

/// A set of experiment points plus dataset-level helpers.
class Dataset {
public:
  Dataset() = default;
  explicit Dataset(std::vector<DataRow> rows) : rows_(std::move(rows)) {}

  const std::vector<DataRow>& rows() const { return rows_; }
  std::vector<DataRow>& rows() { return rows_; }
  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  void append(DataRow row) { rows_.push_back(std::move(row)); }

  /// Rows matching a predicate, as a new dataset.
  Dataset filter_suite(workloads::Suite suite) const;
  Dataset filter_frequency(double frequency_ghz, double tol = 1e-9) const;
  Dataset filter_workloads(const std::vector<std::string>& names) const;
  Dataset exclude_workloads(const std::vector<std::string>& names) const;
  Dataset select_rows(const std::vector<std::size_t>& indices) const;

  /// Distinct workload names in row order of first appearance.
  std::vector<std::string> workload_names() const;

  /// Matrix of per-cycle rates E_n, one column per preset, one row per row.
  /// Throws when a row lacks a requested counter.
  la::Matrix event_rate_matrix(const std::vector<pmc::Preset>& presets) const;

  /// Power vector (the regression target).
  std::vector<double> power() const;

  /// Presets recorded in *every* row (candidates usable for modeling).
  std::vector<pmc::Preset> common_presets() const;

  /// Acquisition-quality provenance (populated by run_campaign; default
  /// "clean" for hand-built datasets).
  const DataQuality& quality() const { return quality_; }
  void set_quality(DataQuality quality) { quality_ = std::move(quality); }

private:
  std::vector<DataRow> rows_;
  DataQuality quality_;
};

/// Convert one merged phase profile into a dataset row. The suite tags the
/// row's workload family (used by suite filters and train/validate splits).
DataRow row_from_profile(const trace::PhaseProfile& profile, workloads::Suite suite);

/// Deterministic row-level train/holdout partition.
struct HoldoutSplit {
  Dataset train;
  Dataset holdout;
};

/// Split `dataset` into train and holdout parts by a seeded pseudo-random
/// permutation of row indices. `holdout_fraction` in (0,1); when the dataset
/// has at least two rows, both parts are guaranteed non-empty. The same
/// (dataset order, fraction, seed) always produces the same split — the
/// property the serve-refresh validation gate relies on for reproducible
/// accept/reject decisions.
HoldoutSplit split_holdout(const Dataset& dataset, double holdout_fraction,
                           std::uint64_t seed);

/// Remove rows that are non-finite or physically impossible (negative or
/// implausible power, non-positive voltage/elapsed time, NaN/negative
/// counter rates) so one poisoned row can never reach a fit. Returns what
/// was dropped and why. `max_power_watts` is the plausibility ceiling for
/// one node's measured power.
SanitizeReport sanitize_dataset(Dataset& dataset, double max_power_watts = 2000.0);

}  // namespace pwx::acquire
