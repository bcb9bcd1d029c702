// Algorithm 1: greedy forward selection of PMC events.
//
// Stage 1 iteratively adds the event whose inclusion yields the highest
// model R² (full Equation-1 fit). Unlike Walker et al., the selected set is
// *not* initialized with a cycle counter — the paper found that this
// "neither improves nor worsens the accuracy of the resulting model
// significantly" ([18]); the option is kept for the ablation bench.
//
// Stage 2 (multicollinearity control) tracks the mean VIF of the selected
// per-cycle event rates after every step, so callers can reproduce the
// paper's Table I/IV analysis — including the CA_SNP dilemma, where the
// seventh event raises R² but explodes the mean VIF and no transformation
// can fix it.
//
// select_events is the R² case of the one greedy loop behind
// select_events_with_criterion (core/selection_criteria.hpp). Each step
// gates the remaining candidates with an approximate score computed under
// OpenMP, then picks the winner from exact fit_ols-identical refits in
// candidate order, so the result never depends on the thread count.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "acquire/dataset.hpp"
#include "core/features.hpp"
#include "pmc/events.hpp"

namespace pwx::core {

/// Options for select_events.
struct SelectionOptions {
  std::size_t count = 6;                 ///< #Events to select
  bool init_with_cycle_counter = false;  ///< Walker et al.'s initialization
  RateNormalization normalization = RateNormalization::PerCycle;
  /// Stage-2 multicollinearity veto: candidates whose addition would push
  /// the mean VIF of the selected set above this bound are skipped (the
  /// paper's "do not select CA_SNP" decision, applied at every step).
  /// Infinity disables the veto — the unmodified Algorithm 1.
  double max_mean_vif = std::numeric_limits<double>::infinity();
};

/// One greedy step.
struct SelectionStep {
  pmc::Preset event = pmc::Preset::kCount;
  double r_squared = 0.0;
  double adj_r_squared = 0.0;
  double mean_vif = 0.0;  ///< 0 while fewer than two events are selected ("n/a")
};

/// Result of Algorithm 1.
struct SelectionResult {
  std::vector<SelectionStep> steps;

  /// The selected events in selection order.
  std::vector<pmc::Preset> selected() const;
};

/// Run Algorithm 1 over `candidates` on `dataset`. Candidates whose fit is
/// numerically impossible (perfectly collinear with already-selected events)
/// are skipped, mirroring what statsmodels' pinv fit would render useless.
/// Throws pwx::Error when no candidate is left (all collinear, or all
/// vetoed by `max_mean_vif`).
SelectionResult select_events(const acquire::Dataset& dataset,
                              const std::vector<pmc::Preset>& candidates,
                              const SelectionOptions& options = {});

/// Mean VIF of a set of events' per-cycle rates on a dataset (the paper's
/// stability metric); infinity when any event is perfectly collinear.
double selected_events_mean_vif(const acquire::Dataset& dataset,
                                const std::vector<pmc::Preset>& events);

/// Same metric on a prebuilt per-cycle rate matrix (one column per event),
/// for callers that already hold the rates — repeated evaluations then skip
/// Dataset's per-row map lookups entirely.
double selected_events_mean_vif(const la::Matrix& rates);

}  // namespace pwx::core
