// Streaming runtime power estimation.
//
// This is the deployment side of the paper's models: a CounterSource
// delivers periodic counter/voltage samples (real perf_event hardware via
// pwx::host, or the simulator), and the OnlineEstimator turns each sample
// into a power estimate with optional exponential smoothing. The estimator
// only needs the counters of the trained model — on Haswell the paper's six
// events fit into a single hardware event set, so runtime estimation needs
// no multiplexing.
//
// Internally every estimate runs on the compiled ModelLayout (core/dense.hpp):
// map-keyed CounterSamples are converted to the layout's dense slot order
// once per call, and the model evaluation is a flat coefficient dot product.
// Guarded callers that already hold DenseSamples (batch ingestion, the
// fleet) skip the conversion; both paths are bit-identical.
//
// The model itself lives in an immutable core::PublishedModel. An estimator
// constructed from a plain PowerModel is pinned to that model forever; one
// constructed from a shared core::LayoutEpoch adopts every newly published
// model at the next estimate call — the adoption check is a single acquire
// load and generation compare, so the estimate path never takes a lock (see
// core/epoch.hpp for the swap protocol).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/dense.hpp"
#include "core/dense_kernels.hpp"
#include "core/epoch.hpp"
#include "core/health.hpp"
#include "core/model.hpp"
#include "pmc/events.hpp"

namespace pwx::core {

/// One periodic reading from a counter source.
struct CounterSample {
  double elapsed_s = 0;                     ///< interval covered by the counts
  double frequency_ghz = 0;                 ///< operating frequency
  double voltage = 0;                       ///< core VDD readout
  std::map<pmc::Preset, double> counts;     ///< event counts over the interval
};

/// Abstract source of counter samples.
class CounterSource {
public:
  virtual ~CounterSource() = default;

  /// Presets this source can deliver.
  virtual std::vector<pmc::Preset> available_events() const = 0;

  /// Begin counting the given presets; throws when unsupported.
  virtual void start(const std::vector<pmc::Preset>& events) = 0;

  /// Read-and-reset: counts since the previous read. Returns nullopt when
  /// the source is exhausted (simulated runs end; hardware never does).
  virtual std::optional<CounterSample> read() = 0;
};

/// Output guards of the hardened estimation path (estimate_guarded, the
/// fleet): estimates are clamped to [kMinWatts, kMaxWatts], a generous range
/// for a 2-socket node.
inline constexpr double kMinWatts = 0.0;
inline constexpr double kMaxWatts = 2000.0;
/// Consecutive invalid samples tolerated while holding the last good
/// estimate (DEGRADED); one more and the stream reports FAILED.
inline constexpr std::size_t kMaxConsecutiveInvalid = 5;

/// Per-stream state of the guarded estimation path: smoothing accumulator,
/// held last-good estimate, and degradation bookkeeping. One per estimate
/// stream — the OnlineEstimator owns one; the FleetEstimator owns one per
/// node (sharing a single ModelLayout), which is what makes a node's state
/// a few dozen bytes instead of a PowerModel copy.
struct GuardedState {
  std::optional<double> smoothed;
  std::optional<double> last_good;
  std::size_t consecutive_invalid = 0;
  HealthState health = HealthState::Ok;

  void reset() { *this = GuardedState{}; }
};

/// One step of the guarded estimation state machine on a dense sample:
/// never throws on bad data, never emits NaN/Inf or a value outside
/// [kMinWatts, kMaxWatts]; invalid samples hold the last good estimate and
/// degrade `state.health` (FAILED after kMaxConsecutiveInvalid misses in a
/// row), a valid sample restores OK. Shared by OnlineEstimator and
/// FleetEstimator so every guarded path has identical semantics and
/// telemetry.
double guarded_estimate_step(const ModelLayout& layout, double smoothing,
                             const DenseSample& sample, GuardedState& state);

/// The guard/clamp/degradation lane of guarded_estimate_step on a
/// *precomputed* raw prediction: `valid` is try_predict's verdict and `raw`
/// its value (ignored when invalid). This is the one definition of the
/// guarded state machine — the scalar step and every batched path
/// (guarded_estimate_batch, the fleet's fused ingest) fold through it, so
/// outputs, state transitions, telemetry counters, and flight-recorder
/// triggers are identical however the prediction was computed.
double guarded_fold_raw(double smoothing, bool valid, double raw,
                        GuardedState& state);

/// Batched guarded estimation: one vector predict over the batch, then the
/// guarded state machine replayed per lane in lane order. Outputs, the
/// final GuardedState, telemetry, and flight triggers are bit-identical to
/// batch.size() sequential guarded_estimate_step calls on the same samples.
/// A batch whose slot count disagrees with `layout` (an epoch swap between
/// batch build and call) estimates every lane as invalid — the same verdict
/// scalar conversion would reach sample by sample. `out` needs
/// batch.size() entries; `health_out`, when non-empty, receives
/// state.health after each lane (for callers that track per-sample health).
/// Also feeds the estimate.batch.samples / estimate.batch.lanes_invalid
/// counters that serving monitors derive estimates/sec from.
void guarded_estimate_batch(const ModelLayout& layout, double smoothing,
                            const SampleBatch& batch, GuardedState& state,
                            std::span<double> out,
                            std::span<HealthState> health_out = {});

/// Count `samples` batch lanes (of which `invalid` failed validation)
/// against the estimate.batch.* counters. No-op when telemetry is off.
/// Exposed for batched paths that fold lanes themselves (fleet ingest).
void note_batch_lanes(std::size_t samples, std::size_t invalid);

/// Turns counter samples into power estimates using a trained model.
class OnlineEstimator {
public:
  /// `smoothing` in [0,1): exponential smoothing factor applied to the
  /// estimate stream (0 = none). The model is pinned: this estimator never
  /// changes models.
  explicit OnlineEstimator(PowerModel model, double smoothing = 0.0);

  /// Epoch-bound estimator: serves the epoch's current publication and
  /// adopts every later publish() at the next estimate call (lock-free
  /// generation check per estimate; re-acquisition only on an actual swap).
  /// Smoothing state and the guarded health machine survive a swap, so the
  /// estimate stream stays continuous across retrains.
  explicit OnlineEstimator(std::shared_ptr<LayoutEpoch> epoch,
                           double smoothing = 0.0);

  /// Estimate power for one sample. Strict: throws InvalidArgument when the
  /// sample is degenerate (non-positive elapsed time, missing events, ...).
  double estimate(const CounterSample& sample);

  /// Hardened path: never throws on bad data, never emits NaN/Inf or a
  /// value outside [kMinWatts, kMaxWatts]. Invalid samples (non-finite or
  /// non-positive elapsed/frequency/voltage, missing or non-finite event
  /// counts, or a non-finite model output) hold the last good estimate and
  /// degrade health(); after kMaxConsecutiveInvalid misses in a row
  /// the estimator reports FAILED (output still held and clamped). A valid
  /// sample restores health to OK.
  double estimate_guarded(const CounterSample& sample);

  /// Hardened path on an already-dense sample.
  double estimate_guarded(const DenseSample& sample);

  /// Batched hardened path: every lane of `batch` (built against layout())
  /// runs through the same guarded state machine in lane order —
  /// bit-identical to batch.size() sequential estimate_guarded calls,
  /// amortizing the model evaluation across SIMD lanes. If an epoch swap
  /// adopted a layout with a different slot count since the batch was
  /// built, every lane is treated as invalid (held estimate, degraded
  /// health) — build the batch right before the call. `health_out`, when
  /// non-empty, receives health() after each lane.
  void estimate_batch_guarded(const SampleBatch& batch, std::span<double> out,
                              std::span<HealthState> health_out = {});

  /// Convert-and-estimate: adopts any pending hot swap first, then converts
  /// each map-keyed sample against the adopted layout with
  /// ModelLayout::to_dense_guarded, appends it to `scratch` (reused across
  /// calls) and runs the batched path — the swap race of the SampleBatch
  /// overload cannot happen here.
  void estimate_batch_guarded(std::span<const CounterSample> samples,
                              SampleBatch& scratch, std::span<double> out,
                              std::span<HealthState> health_out = {});

  /// Health of the guarded estimate stream.
  HealthState health() const { return state_.health; }
  /// Consecutive invalid samples absorbed since the last good one — the
  /// staleness bound of the held estimate.
  std::size_t consecutive_invalid() const { return state_.consecutive_invalid; }

  /// The model's event requirements (what to pass to CounterSource::start).
  /// Epoch-bound estimators: valid until the next estimate call adopts a
  /// newly published model (same caveat for model()/layout()).
  const std::vector<pmc::Preset>& required_events() const {
    return current_->model.spec().events;
  }

  const PowerModel& model() const { return current_->model; }
  /// The compiled layout (to build DenseSamples for the guarded overloads).
  const ModelLayout& layout() const { return current_->layout; }
  /// The currently served publication (shared ownership: survives swaps).
  std::shared_ptr<const PublishedModel> publication() const { return current_; }
  /// Generation of the currently served publication (1 when model-pinned).
  std::uint64_t generation() const { return current_->generation; }

  /// Reset the smoothing and degradation state.
  void reset();

private:
  double smooth(double raw);
  /// Adopt a newly published model if the bound epoch swapped (one acquire
  /// load and compare when it did not).
  void maybe_adopt();

  std::shared_ptr<LayoutEpoch> epoch_;             ///< null when model-pinned
  std::shared_ptr<const PublishedModel> current_;  ///< never null
  double smoothing_;
  GuardedState state_;
  DenseSample scratch_;  ///< conversion buffer: map overloads allocate nothing
};

}  // namespace pwx::core
