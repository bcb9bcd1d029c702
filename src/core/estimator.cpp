#include "core/estimator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace pwx::core {

namespace {

// Metric handles for the guarded estimation path. The strict estimate()
// fast path stays uninstrumented to honour the overhead contract.
struct EstimatorMetrics {
  obs::Counter& estimates;
  obs::Counter& invalid_samples;
  obs::Counter& clamped;
  obs::Counter& health_transitions;
  obs::Gauge& health;
};

EstimatorMetrics& estimator_metrics() {
  static EstimatorMetrics m{
      obs::registry().counter("estimator.estimates",
                              "guarded power estimates produced"),
      obs::registry().counter("estimator.invalid_samples",
                              "samples rejected by the guarded estimator"),
      obs::registry().counter("estimator.clamped",
                              "raw estimates clamped into the guard range"),
      obs::registry().counter("estimator.health_transitions",
                              "estimator health-state changes"),
      obs::registry().gauge("estimator.health",
                            "estimator health (0=ok, 1=degraded, 2=failed)"),
  };
  return m;
}

double smooth_step(double smoothing, double raw, GuardedState& state) {
  if (smoothing <= 0.0) {
    return raw;
  }
  if (!state.smoothed.has_value()) {
    state.smoothed = raw;
  } else {
    state.smoothed = smoothing * *state.smoothed + (1.0 - smoothing) * raw;
  }
  return *state.smoothed;
}

}  // namespace

double guarded_fold_raw(double smoothing, bool valid, double raw,
                        GuardedState& state) {
  const bool telemetry = obs::enabled();
  const HealthState before = state.health;
  if (valid) {
    state.consecutive_invalid = 0;
    state.health = HealthState::Ok;
    const double clamped = std::clamp(raw, kMinWatts, kMaxWatts);
    const double out = smooth_step(smoothing, clamped, state);
    state.last_good = out;
    if (telemetry) {
      // Unguarded instrument ops: the one enabled() check above covers the
      // whole block, so the steady-state cost is a single atomic increment.
      EstimatorMetrics& m = estimator_metrics();
      m.estimates.add_unguarded(1);
      if (clamped != raw) {
        m.clamped.add_unguarded(1);
      }
      // The gauge is only written on transitions to keep the steady-state
      // cost of this hot path to one counter increment.
      if (state.health != before) {
        m.health_transitions.add_unguarded(1);
        m.health.set_unguarded(static_cast<double>(state.health));
      }
    }
    return out;
  }
  // Invalid sample: hold the last good estimate with a bounded staleness.
  state.consecutive_invalid += 1;
  state.health = state.consecutive_invalid > kMaxConsecutiveInvalid
                     ? HealthState::Failed
                     : HealthState::Degraded;
  const double held = state.last_good.value_or(kMinWatts);
  // Black-box dump on the health *transition* (not every held estimate):
  // the flight ring at this moment holds the spans and metric deltas that
  // led into the degradation. Transition-only keeps the hot path clean.
  if (state.health != before && obs::flight().armed()) {
    obs::flight().trigger(state.health == HealthState::Failed
                              ? "estimator_failed"
                              : "estimator_degraded");
  }
  if (telemetry) {
    EstimatorMetrics& m = estimator_metrics();
    m.estimates.add_unguarded(1);
    m.invalid_samples.add_unguarded(1);
    if (state.health != before) {
      m.health_transitions.add_unguarded(1);
      m.health.set_unguarded(static_cast<double>(state.health));
    }
  }
  return std::clamp(held, kMinWatts, kMaxWatts);
}

double guarded_estimate_step(const ModelLayout& layout, double smoothing,
                             const DenseSample& sample, GuardedState& state) {
  const std::optional<double> raw = layout.try_predict(sample);
  return guarded_fold_raw(smoothing, raw.has_value(), raw.value_or(0.0), state);
}

void note_batch_lanes(std::size_t samples, std::size_t invalid) {
  if (!obs::enabled()) {
    return;
  }
  static obs::Counter& batch_samples = obs::registry().counter(
      "estimate.batch.samples", "samples estimated through the batched path");
  static obs::Counter& batch_invalid = obs::registry().counter(
      "estimate.batch.lanes_invalid",
      "batched-path lanes rejected by sample validation");
  batch_samples.add_unguarded(samples);
  batch_invalid.add_unguarded(invalid);
}

void guarded_estimate_batch(const ModelLayout& layout, double smoothing,
                            const SampleBatch& batch, GuardedState& state,
                            std::span<double> out,
                            std::span<HealthState> health_out) {
  const std::size_t lanes = batch.size();
  PWX_REQUIRE(out.size() >= lanes, "output span has ", out.size(),
              " entries for ", lanes, " lanes");
  PWX_REQUIRE(health_out.empty() || health_out.size() >= lanes,
              "health span has ", health_out.size(), " entries for ", lanes,
              " lanes");
  if (lanes == 0) {
    return;
  }
  if (batch.slots() != layout.slots()) {
    // The batch was built against a layout a hot swap replaced: every lane
    // is invalid, exactly as per-sample conversion would conclude.
    for (std::size_t k = 0; k < lanes; ++k) {
      out[k] = guarded_fold_raw(smoothing, false, 0.0, state);
      if (!health_out.empty()) {
        health_out[k] = state.health;
      }
    }
    note_batch_lanes(lanes, lanes);
    return;
  }
  // Raw predictions land directly in `out` and are folded in place — the
  // guarded step only ever reads lane k's raw value before writing lane k.
  // When no smoothing or telemetry needs the unclamped raw value, the guard
  // clamp is fused into the kernel store (clamping is idempotent, so lanes
  // that still go through the per-lane fold below produce identical bits).
  thread_local std::vector<std::uint8_t> valids;
  valids.resize(lanes);
  const bool fused_clamp = smoothing <= 0.0 && !obs::enabled();
  if (fused_clamp) {
    predict_batch_clamped(layout, batch, kMinWatts, kMaxWatts, out, valids);
  } else {
    predict_batch_guarded(layout, batch, out, valids);
  }
  std::uint8_t all_valid = 1;
  for (std::size_t k = 0; k < lanes; ++k) {
    all_valid &= valids[k];
  }
  // Fast path: every lane valid, no smoothing, telemetry off. Each fold
  // then degenerates to the clamp the kernel already applied plus the same
  // terminal state (health Ok, invalid streak 0, last_good = the final
  // lane's output, smoothed untouched) — so the state machine is applied
  // once and the outputs are already final. Identical outputs and end
  // state to the lane-by-lane fold; any smoothing, telemetry, or invalid
  // lane falls through to it.
  if (all_valid != 0 && fused_clamp) {
    state.consecutive_invalid = 0;
    state.health = HealthState::Ok;
    state.last_good = out[lanes - 1];
    if (!health_out.empty()) {
      std::fill_n(health_out.begin(), lanes, HealthState::Ok);
    }
    return;
  }
  std::size_t invalid = 0;
  for (std::size_t k = 0; k < lanes; ++k) {
    const bool valid = valids[k] != 0;
    invalid += valid ? 0 : 1;
    out[k] = guarded_fold_raw(smoothing, valid, out[k], state);
    if (!health_out.empty()) {
      health_out[k] = state.health;
    }
  }
  note_batch_lanes(lanes, invalid);
}

OnlineEstimator::OnlineEstimator(PowerModel model, double smoothing)
    : current_(std::make_shared<const PublishedModel>(std::move(model), 1)),
      smoothing_(smoothing), scratch_(current_->layout.make_sample()) {
  PWX_REQUIRE(smoothing_ >= 0.0 && smoothing_ < 1.0, "smoothing must be in [0,1)");
}

OnlineEstimator::OnlineEstimator(std::shared_ptr<LayoutEpoch> epoch,
                                 double smoothing)
    : epoch_(std::move(epoch)), smoothing_(smoothing) {
  PWX_REQUIRE(epoch_ != nullptr, "estimator needs a non-null epoch");
  PWX_REQUIRE(smoothing_ >= 0.0 && smoothing_ < 1.0, "smoothing must be in [0,1)");
  current_ = epoch_->current();
  scratch_ = current_->layout.make_sample();
}

double OnlineEstimator::smooth(double raw) {
  return smooth_step(smoothing_, raw, state_);
}

void OnlineEstimator::maybe_adopt() {
  if (epoch_ != nullptr && epoch_->generation() != current_->generation) {
    PWX_SPAN("epoch.adopt");
    current_ = epoch_->current();
    scratch_ = current_->layout.make_sample();
    // GuardedState survives: the held estimate and smoothing accumulator
    // carry across the swap, so the output stream never drops or restarts.
  }
}

double OnlineEstimator::estimate(const CounterSample& sample) {
  PWX_REQUIRE(sample.elapsed_s > 0.0, "sample needs a positive elapsed time");
  PWX_REQUIRE(sample.frequency_ghz > 0.0, "sample needs a frequency");
  PWX_REQUIRE(sample.voltage > 0.0, "sample needs a voltage");
  maybe_adopt();
  current_->layout.to_dense(sample, scratch_);
  return smooth(current_->layout.predict(scratch_));
}

double OnlineEstimator::estimate_guarded(const CounterSample& sample) {
  maybe_adopt();
  current_->layout.to_dense_guarded(sample, scratch_);
  return guarded_estimate_step(current_->layout, smoothing_, scratch_, state_);
}

double OnlineEstimator::estimate_guarded(const DenseSample& sample) {
  maybe_adopt();
  return guarded_estimate_step(current_->layout, smoothing_, sample, state_);
}

void OnlineEstimator::estimate_batch_guarded(const SampleBatch& batch,
                                             std::span<double> out,
                                             std::span<HealthState> health_out) {
  maybe_adopt();
  guarded_estimate_batch(current_->layout, smoothing_, batch, state_, out,
                         health_out);
}

void OnlineEstimator::estimate_batch_guarded(
    std::span<const CounterSample> samples, SampleBatch& scratch,
    std::span<double> out, std::span<HealthState> health_out) {
  // Adopt before converting so the batch is built against the layout that
  // will score it — the slot-mismatch all-invalid path cannot trigger here.
  maybe_adopt();
  scratch.reset(current_->layout, samples.size());
  for (const CounterSample& sample : samples) {
    current_->layout.to_dense_guarded(sample, scratch_);
    scratch.append(scratch_);
  }
  guarded_estimate_batch(current_->layout, smoothing_, scratch, state_, out,
                         health_out);
}

void OnlineEstimator::reset() { state_.reset(); }

}  // namespace pwx::core
