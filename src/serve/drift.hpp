// Windowed drift detection for a live estimate stream.
//
// A deployed power model goes stale: DVFS tables change, firmware updates
// shift static power, a heterogeneous fleet rolls in new parts. The
// DriftMonitor watches the serving residuals — |estimate − reference| against
// whatever reference power is available (RAPL on real hardware, simulated
// ground truth here) — in fixed-size windows, computes per-window MAPE and
// signed bias, and raises a retrain trigger only after K *consecutive*
// breaching windows. The hysteresis matters: one garbage window (a workload
// phase change, a sensor glitch) must never flap the retrain pipeline, and
// after a trigger has been acknowledged the monitor demands a rearm period of
// healthy windows before it may fire again, so a retrain that is still
// converging cannot immediately re-trigger itself.
//
// When no reference power exists, the guarded-estimation health stream
// (invalid/clamped flags from core::GuardedState) feeds the same windows, so
// a fleet without power sensors still detects "the model stopped fitting the
// samples" drift via its invalid fraction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace pwx::serve {

/// A window also breaches when |mean signed error| exceeds this ...
inline constexpr double kMaxAbsBiasWatts = 20.0;
/// ... or when more than this fraction of its guarded-path health events
/// were invalid samples.
inline constexpr double kMaxInvalidFraction = 0.25;

/// Drift thresholds and hysteresis.
struct DriftConfig {
  std::size_t window_size = 64;        ///< residual observations per window
  double max_mape_pct = 10.0;          ///< per-window MAPE breach threshold
  /// Consecutive breaching windows required to raise the retrain trigger
  /// (the hysteresis: one bad window never flaps).
  std::size_t trigger_windows = 3;
  /// Healthy (non-breaching) windows required after acknowledge() before
  /// breaches count towards a new trigger again.
  std::size_t rearm_windows = 2;
};

/// Metrics of one closed window.
struct WindowStats {
  std::uint64_t index = 0;          ///< 0-based window sequence number
  std::size_t residuals = 0;        ///< paired (estimate, reference) samples
  std::size_t health_events = 0;    ///< guarded-path health observations
  double mape_pct = 0.0;            ///< MAPE over usable residuals
  double bias_watts = 0.0;          ///< mean (estimate − reference)
  double invalid_fraction = 0.0;    ///< invalid / health_events (0 when none)
  double clamp_fraction = 0.0;      ///< clamped / health_events (0 when none)
  bool breached = false;
};

/// Rolling-window drift detector. One instance per estimate stream; not
/// thread-safe (the serving loop that produces the estimates owns it).
class DriftMonitor {
public:
  explicit DriftMonitor(DriftConfig config = {});

  /// Feed one paired serving observation. Returns the closed window's stats
  /// when this observation completed a window, nullopt otherwise.
  /// References at or below `min_reference_watts` cannot support a relative
  /// error and are tallied as invalid health events instead.
  std::optional<WindowStats> observe(double estimate_watts,
                                     double reference_watts);

  /// Feed one guarded-path health observation (no reference power needed).
  /// Counts towards the current window's invalid/clamp fractions; a window
  /// closes only on observe() residuals, so a reference-free stream should
  /// call observe_health() *and* observe() with the held estimate as both
  /// arguments — or rely on the invalid fraction alone via window_size
  /// health-only streams driven by close_window().
  void observe_health(bool invalid, bool clamped);

  /// Force-close the current window regardless of fill (flush at shutdown,
  /// or to window a health-only stream). Returns nullopt when empty.
  std::optional<WindowStats> close_window();

  /// True while a retrain trigger is raised and unacknowledged.
  bool retrain_due() const { return triggered_; }

  /// Consume the trigger: the supervisor has started (or finished) a
  /// retrain. Clears the trigger, zeroes the breach streak, and starts the
  /// rearm period.
  void acknowledge();

  const DriftConfig& config() const { return config_; }
  std::uint64_t windows_closed() const { return windows_closed_; }
  std::uint64_t windows_breached() const { return windows_breached_; }
  std::uint64_t triggers_raised() const { return triggers_raised_; }
  std::size_t consecutive_breaches() const { return consecutive_breaches_; }
  /// Healthy windows still required before breaches count again.
  std::size_t rearm_remaining() const { return rearm_remaining_; }
  /// Stats of the most recently closed window.
  const std::optional<WindowStats>& last_window() const { return last_window_; }

  /// Forget everything (windows, streaks, trigger, rearm).
  void reset();

  /// References at or below this are unusable for relative error.
  static constexpr double min_reference_watts = 1e-6;

private:
  std::optional<WindowStats> finish_window();

  DriftConfig config_;

  // Current-window accumulators.
  std::size_t residuals_ = 0;
  double abs_pct_error_sum_ = 0.0;   ///< sum |e−r|/r over usable residuals
  std::size_t usable_residuals_ = 0;
  double signed_error_sum_ = 0.0;    ///< sum (e−r)
  std::size_t health_events_ = 0;
  std::size_t invalid_events_ = 0;
  std::size_t clamped_events_ = 0;

  // Cross-window state.
  std::uint64_t windows_closed_ = 0;
  std::uint64_t windows_breached_ = 0;
  std::uint64_t triggers_raised_ = 0;
  std::size_t consecutive_breaches_ = 0;
  std::size_t rearm_remaining_ = 0;
  bool triggered_ = false;
  std::optional<WindowStats> last_window_;
};

}  // namespace pwx::serve
