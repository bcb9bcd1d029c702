// Column pool behind the selection algorithms.
//
// Algorithm 1 and the stepwise-criterion variants fit one model per remaining
// candidate per step, and the stage-2 veto evaluates the mean VIF of many
// trial sets. The pool builds everything those trials read exactly once per
// selection call, from the same calls the rest of the pipeline uses:
//
//   * the Equation 1 design over every candidate, build_features'
//     [E_n·V²f ... | V²f | V] in the requested normalization, stored
//     column-major so StepwiseOls scans contiguous candidate columns, with
//     its trailing [V²f, V] block kept as the base design;
//   * Dataset::event_rate_matrix over the candidates — the per-cycle rates
//     in which the paper's mean-VIF stability metric lives (always per-cycle,
//     regardless of the feature normalization);
//   * Dataset::power(), the regression target.
//
// Trials then run on cached columns; the mean-VIF veto slices the cached
// rates and computes all VIFs from a single QR (vif_all_qr) instead of one
// auxiliary regression per selected event per check.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "acquire/dataset.hpp"
#include "core/features.hpp"
#include "la/matrix.hpp"
#include "pmc/events.hpp"

namespace pwx::core {

class SelectionColumnPool {
public:
  SelectionColumnPool(const acquire::Dataset& dataset,
                      const std::vector<pmc::Preset>& candidates,
                      RateNormalization normalization);

  std::size_t candidate_count() const { return events_.size(); }
  const std::vector<pmc::Preset>& events() const { return events_; }

  /// Feature column of candidate i: rate·V²f, one entry per dataset row.
  std::span<const double> feature_column(std::size_t i) const { return columns_.row(i); }

  /// All candidate feature columns as one contiguous column-major block
  /// (candidate i at [i·rows, (i+1)·rows)) — the layout
  /// StepwiseOls::register_candidates expects.
  std::span<const double> feature_columns() const {
    return columns_.data().first(candidate_count() * columns_.cols());
  }

  /// The m x 2 matrix [V²f, V] — the fixed trailing columns of Equation 1's
  /// design (the OLS intercept supplies δ·Z).
  const la::Matrix& base_features() const { return base_; }

  /// Regression target (average power per row).
  std::span<const double> power() const { return power_; }

  /// Mean VIF of the per-cycle rates of a candidate subset (indices into
  /// events(), in selection order), from the cached rates — no Dataset
  /// access. Subset size must be >= 2.
  double mean_vif(std::span<const std::size_t> subset) const;

private:
  std::vector<pmc::Preset> events_;
  la::Matrix columns_;  ///< build_features' design transposed: row i is column i
  la::Matrix rates_;    ///< Dataset::event_rate_matrix over every candidate
  la::Matrix base_;     ///< the design's trailing [V²f, V] columns
  std::vector<double> power_;
};

}  // namespace pwx::core
