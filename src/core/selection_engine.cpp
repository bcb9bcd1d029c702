#include "core/selection_engine.hpp"

#include <array>

#include "common/error.hpp"
#include "regress/vif.hpp"

namespace pwx::core {

SelectionColumnPool::SelectionColumnPool(const acquire::Dataset& dataset,
                                         const std::vector<pmc::Preset>& candidates,
                                         RateNormalization normalization)
    : events_(candidates),
      rates_(dataset.event_rate_matrix(candidates)),
      power_(dataset.power()) {
  const la::Matrix design = build_features(
      dataset, FeatureSpec{.events = candidates, .normalization = normalization});
  const std::array<std::size_t, 2> trailing{events_.size(), events_.size() + 1};
  base_ = design.select_columns(trailing);
  columns_ = design.transposed();
}

double SelectionColumnPool::mean_vif(std::span<const std::size_t> subset) const {
  PWX_REQUIRE(subset.size() >= 2, "mean VIF needs at least two events");
  return regress::mean_vif_qr(rates_.select_columns(subset));
}

}  // namespace pwx::core
