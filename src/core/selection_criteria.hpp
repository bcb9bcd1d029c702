// Alternative event-selection algorithms and criteria.
//
// The paper's future work asks for "different statistical algorithms and
// heuristic criterion's for selecting PMC events as variables for the
// regression based power models". This module provides them on top of the
// same dataset/feature machinery as Algorithm 1:
//
//   * stepwise forward selection driven by R², Adjusted R², AIC, or BIC.
//     This is the one greedy loop in the library: Algorithm 1
//     (select_events) is its R² case, with the same Walker seed, VIF veto
//     and gated scan. The information criteria can stop early when an
//     additional event is not worth its degree of freedom;
//   * a correlation-ranking baseline (take the top-|PCC| counters) — the
//     naive approach the paper's Section V implicitly argues against;
//   * LASSO-path selection: the L1 path over all candidate events produces
//     sparse models directly and stays stable under the collinearity that
//     breaks greedy selection (the CA_SNP dilemma).
//
// `pwx-repro ablation_selection_criteria` compares them all.
#pragma once

#include <vector>

#include "acquire/dataset.hpp"
#include "core/selection.hpp"
#include "pmc/events.hpp"

namespace pwx::core {

/// Score that stepwise selection optimizes.
enum class SelectionCriterion {
  RSquared,           ///< Algorithm 1's criterion (maximize)
  AdjustedRSquared,   ///< maximize; penalizes parameters mildly
  Aic,                ///< minimize n·ln(SSR/n) + 2k
  Bic,                ///< minimize n·ln(SSR/n) + k·ln(n)
};

/// One stepwise step: Algorithm 1's fields plus the criterion's value for
/// the fitted set (R² or Adj.R² for those criteria, AIC/BIC otherwise).
struct CriterionStep {
  SelectionStep base;
  double criterion_value = 0.0;
};

struct CriterionSelectionResult {
  SelectionCriterion criterion = SelectionCriterion::RSquared;
  std::vector<CriterionStep> steps;
  bool stopped_early = false;  ///< criterion or VIF veto refused more events

  std::vector<pmc::Preset> selected() const;
};

/// Stepwise forward selection under `criterion`, honouring every
/// SelectionOptions field. With `init_with_cycle_counter` TOT_CYC is
/// committed first and its step carries the seeded fit's criterion value.
/// Stops before `options.count` events when the VIF veto leaves no
/// candidate, or when no candidate improves an information criterion on
/// the committed model (at first the seeded fit, or the event-free
/// [V²f, V] fit without a seed).
CriterionSelectionResult select_events_with_criterion(
    const acquire::Dataset& dataset, const std::vector<pmc::Preset>& candidates,
    const SelectionOptions& options, SelectionCriterion criterion);

/// Baseline: the `count` candidates with the highest |PCC| against power.
std::vector<pmc::Preset> select_events_by_correlation(
    const acquire::Dataset& dataset, const std::vector<pmc::Preset>& candidates,
    std::size_t count);

/// LASSO-path selection over all candidates (event-rate features; the V²f
/// and V columns are part of the design but not eligible for "selection").
struct LassoSelectionResult {
  std::vector<pmc::Preset> selected;  ///< by descending |standardized coefficient|
  double lambda = 0.0;                ///< penalty at which the set was read off
  double r_squared = 0.0;             ///< fit quality at that penalty
  std::size_t path_position = 0;      ///< index into the path
};

LassoSelectionResult select_events_lasso(const acquire::Dataset& dataset,
                                         const std::vector<pmc::Preset>& candidates,
                                         std::size_t count,
                                         RateNormalization normalization =
                                             RateNormalization::PerCycle);

}  // namespace pwx::core
