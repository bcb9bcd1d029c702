// Leave-one-workload-out validation.
//
// The paper's random-indexed k-fold (Table II) mixes every workload into the
// training set, which — as its own scenario analysis shows — understates the
// error on genuinely unseen applications. Leave-one-workload-out (LOWO) is
// the sharper instrument: for every workload, train on all others and
// validate on it. Each round splits the rows by workload name and fits
// Equation 1 on one shared design matrix, sliced per round.
#pragma once

#include <string>
#include <vector>

#include "acquire/dataset.hpp"
#include "core/features.hpp"

namespace pwx::core {

/// Per-workload hold-out result.
struct WorkloadHoldout {
  std::string workload;
  double mape = 0.0;             ///< on the held-out workload's rows
  double bias = 0.0;             ///< mean signed relative error (+ = over)
  std::size_t rows = 0;
  bool fit_failed = false;       ///< training design collinear without it
};

/// Summary of a LOWO sweep.
struct LowoSummary {
  std::vector<WorkloadHoldout> holdouts;  ///< one per workload, dataset order
  double mean_mape = 0.0;                 ///< over workloads with a valid fit
  double worst_mape = 0.0;
  std::string worst_workload;
};

/// Run leave-one-workload-out over the dataset. Workloads whose exclusion
/// makes the training design rank deficient are reported with
/// `fit_failed = true` and excluded from the aggregate.
LowoSummary leave_one_workload_out(const acquire::Dataset& dataset,
                                   const FeatureSpec& spec);

}  // namespace pwx::core
