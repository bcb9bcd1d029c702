// Compiled model layout and dense samples — the serving-side representation.
//
// Training wants named, map-keyed counter data (readable, mergeable,
// order-independent); serving wants a handful of FMAs. A ModelLayout is the
// bridge: built once from a trained PowerModel, it fixes a dense slot order
// (the model's event order), flattens the fitted coefficients, and evaluates
// Equation 1 on a DenseSample — a flat double array in slot order plus
// elapsed/frequency/voltage — with no map traffic in the loop. Map-keyed
// CounterSamples enter through to_dense/to_dense_guarded only.
//
// The layout's arithmetic replays PowerModel::predict operation for
// operation (rate = counts/elapsed, per-cycle normalization, x = rate·V²f,
// then the coefficient dot product in column order), so a dense estimate is
// bit-identical to PowerModel::predict on a one-row Dataset carrying the
// sample's rates, frequency and voltage. Equivalence is pinned by
// tests/fleet_test.cpp.
#pragma once

#include <optional>
#include <vector>

#include "core/features.hpp"
#include "core/model.hpp"
#include "pmc/events.hpp"

namespace pwx::core {

struct CounterSample;  // core/estimator.hpp

/// One counter reading in a ModelLayout's slot order. `counts[i]` is the
/// event count over the interval for the layout's slot i.
struct DenseSample {
  double elapsed_s = 0;      ///< interval covered by the counts
  double frequency_ghz = 0;  ///< operating frequency
  double voltage = 0;        ///< core VDD readout
  std::vector<double> counts;
};

/// A PowerModel compiled for serving: slot table + flat coefficients.
class ModelLayout {
public:
  ModelLayout() = default;
  explicit ModelLayout(const PowerModel& model);

  /// Events in slot order (the model spec's order).
  const std::vector<pmc::Preset>& events() const { return events_; }
  std::size_t slots() const { return events_.size(); }

  /// A DenseSample with `counts` preallocated to slots() (for reuse across
  /// to_dense calls — the hot loop allocates nothing).
  DenseSample make_sample() const;

  /// Strict conversion: copies elapsed/frequency/voltage and the layout's
  /// events into slot order; throws InvalidArgument when the sample lacks a
  /// required event (same contract as OnlineEstimator::estimate). Extra
  /// events in the sample are ignored. Lossless for the model: every value
  /// the model reads is carried over unchanged.
  void to_dense(const CounterSample& sample, DenseSample& out) const;

  /// Guarded conversion: never throws; a missing event becomes NaN, which
  /// the guarded validation path rejects exactly like the map-based one.
  void to_dense_guarded(const CounterSample& sample, DenseSample& out) const;

  /// Raw Equation-1 output (no smoothing, no guards). Bit-identical to
  /// PowerModel::predict on the equivalent one-row Dataset. `counts` must
  /// have slots() entries.
  double predict(const DenseSample& sample) const;

  /// Guarded evaluation: nullopt when the sample is invalid (non-finite or
  /// non-positive elapsed/frequency/voltage, wrong slot count, missing/
  /// non-finite/negative counts, or a non-finite model output) — the dense
  /// mirror of OnlineEstimator's sample validation.
  std::optional<double> try_predict(const DenseSample& sample) const;

  // Flat coefficient access for the batched kernels (dense_kernels.hpp):
  // exactly the values predict() reads, in the same slot order.
  const std::vector<double>& coefficients() const { return coef_; }
  double intercept() const { return intercept_; }
  double dyn_coef() const { return dyn_coef_; }
  double static_coef() const { return static_coef_; }
  bool per_cycle() const { return per_cycle_; }

private:
  std::vector<pmc::Preset> events_;
  std::vector<double> coef_;      ///< α_n in slot order
  double intercept_ = 0.0;        ///< δ·Z
  double dyn_coef_ = 0.0;         ///< β (V²f column)
  double static_coef_ = 0.0;      ///< γ (V column)
  bool per_cycle_ = true;         ///< RateNormalization::PerCycle
};

}  // namespace pwx::core
