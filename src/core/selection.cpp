#include "core/selection.hpp"

#include "common/error.hpp"
#include "core/selection_criteria.hpp"
#include "regress/vif.hpp"

namespace pwx::core {

std::vector<pmc::Preset> SelectionResult::selected() const {
  std::vector<pmc::Preset> out;
  out.reserve(steps.size());
  for (const SelectionStep& step : steps) {
    out.push_back(step.event);
  }
  return out;
}

double selected_events_mean_vif(const acquire::Dataset& dataset,
                                const std::vector<pmc::Preset>& events) {
  PWX_REQUIRE(events.size() >= 2, "mean VIF needs at least two events");
  return selected_events_mean_vif(dataset.event_rate_matrix(events));
}

double selected_events_mean_vif(const la::Matrix& rates) {
  PWX_REQUIRE(rates.cols() >= 2, "mean VIF needs at least two events");
  return regress::mean_vif_qr(rates);
}

SelectionResult select_events(const acquire::Dataset& dataset,
                              const std::vector<pmc::Preset>& candidates,
                              const SelectionOptions& options) {
  // Algorithm 1 is the R² case of the one greedy loop; for R² the loop
  // stops early only when the VIF veto leaves no candidate.
  const CriterionSelectionResult greedy = select_events_with_criterion(
      dataset, candidates, options, SelectionCriterion::RSquared);
  PWX_CHECK(!greedy.stopped_early,
            "no candidate event admits a full-rank fit within the VIF bound");
  SelectionResult result;
  result.steps.reserve(greedy.steps.size());
  for (const CriterionStep& step : greedy.steps) {
    result.steps.push_back(step.base);
  }
  return result;
}

}  // namespace pwx::core
