#include "serve/drift.hpp"

#include <cmath>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace pwx::serve {

namespace {

struct DriftMetrics {
  obs::Counter& windows = obs::registry().counter(
      "serve.drift_windows", "drift windows closed");
  obs::Counter& breaches = obs::registry().counter(
      "serve.drift_breaches", "drift windows that breached a threshold");
  obs::Counter& triggers = obs::registry().counter(
      "serve.drift_triggers", "retrain triggers raised");
  obs::Gauge& mape = obs::registry().gauge(
      "serve.window_mape_pct", "MAPE of the last closed drift window");
  obs::Gauge& bias = obs::registry().gauge(
      "serve.window_bias_watts", "signed bias of the last closed drift window");
  obs::Gauge& streak = obs::registry().gauge(
      "serve.breach_streak", "consecutive breaching drift windows");
};

DriftMetrics& drift_metrics() {
  static DriftMetrics metrics;
  return metrics;
}

}  // namespace

DriftMonitor::DriftMonitor(DriftConfig config) : config_(config) {
  PWX_REQUIRE(config_.window_size > 0, "drift window size must be positive");
  PWX_REQUIRE(config_.trigger_windows > 0,
              "drift trigger_windows must be positive");
  PWX_REQUIRE(config_.max_mape_pct > 0.0, "drift MAPE threshold must be positive");
}

std::optional<WindowStats> DriftMonitor::observe(double estimate_watts,
                                                 double reference_watts) {
  ++residuals_;
  const bool usable = std::isfinite(estimate_watts) &&
                      std::isfinite(reference_watts) &&
                      reference_watts > min_reference_watts;
  if (usable) {
    ++usable_residuals_;
    abs_pct_error_sum_ +=
        std::fabs(estimate_watts - reference_watts) / reference_watts;
    signed_error_sum_ += estimate_watts - reference_watts;
  } else {
    // A residual we cannot score is itself a health problem.
    ++health_events_;
    ++invalid_events_;
  }
  if (residuals_ >= config_.window_size) {
    return finish_window();
  }
  return std::nullopt;
}

void DriftMonitor::observe_health(bool invalid, bool clamped) {
  ++health_events_;
  if (invalid) {
    ++invalid_events_;
  }
  if (clamped) {
    ++clamped_events_;
  }
}

std::optional<WindowStats> DriftMonitor::close_window() {
  if (residuals_ == 0 && health_events_ == 0) {
    return std::nullopt;
  }
  return finish_window();
}

std::optional<WindowStats> DriftMonitor::finish_window() {
  PWX_SPAN("drift.window");
  WindowStats stats;
  stats.index = windows_closed_;
  stats.residuals = residuals_;
  stats.health_events = health_events_;
  stats.mape_pct = usable_residuals_ > 0
                       ? 100.0 * abs_pct_error_sum_ /
                             static_cast<double>(usable_residuals_)
                       : 0.0;
  stats.bias_watts = usable_residuals_ > 0
                         ? signed_error_sum_ /
                               static_cast<double>(usable_residuals_)
                         : 0.0;
  stats.invalid_fraction =
      health_events_ > 0 ? static_cast<double>(invalid_events_) /
                               static_cast<double>(health_events_)
                         : 0.0;
  stats.clamp_fraction =
      health_events_ > 0 ? static_cast<double>(clamped_events_) /
                               static_cast<double>(health_events_)
                         : 0.0;
  stats.breached = stats.mape_pct > config_.max_mape_pct ||
                   std::fabs(stats.bias_watts) > kMaxAbsBiasWatts ||
                   stats.invalid_fraction > kMaxInvalidFraction;

  residuals_ = 0;
  usable_residuals_ = 0;
  abs_pct_error_sum_ = 0.0;
  signed_error_sum_ = 0.0;
  health_events_ = 0;
  invalid_events_ = 0;
  clamped_events_ = 0;

  ++windows_closed_;
  const bool telemetry = obs::enabled();
  DriftMetrics& metrics = drift_metrics();
  if (telemetry) {
    metrics.windows.add_unguarded();
    metrics.mape.set_unguarded(stats.mape_pct);
    metrics.bias.set_unguarded(stats.bias_watts);
  }

  if (stats.breached) {
    ++windows_breached_;
    if (telemetry) {
      metrics.breaches.add_unguarded();
    }
    if (rearm_remaining_ == 0) {
      ++consecutive_breaches_;
      if (!triggered_ && consecutive_breaches_ >= config_.trigger_windows) {
        triggered_ = true;
        ++triggers_raised_;
        if (telemetry) {
          metrics.triggers.add_unguarded();
        }
      }
    }
    // A breach during rearm neither counts toward a new trigger nor resets
    // the rearm countdown: the freshly published model gets its full grace
    // period of healthy windows before it can be declared drifted again.
  } else {
    consecutive_breaches_ = 0;
    if (rearm_remaining_ > 0) {
      --rearm_remaining_;
    }
  }
  if (telemetry) {
    metrics.streak.set_unguarded(static_cast<double>(consecutive_breaches_));
  }

  obs::span_attr("mape_pct", stats.mape_pct);
  obs::span_attr("breached", stats.breached ? "true" : "false");
  last_window_ = stats;
  return stats;
}

void DriftMonitor::acknowledge() {
  triggered_ = false;
  consecutive_breaches_ = 0;
  rearm_remaining_ = config_.rearm_windows;
}

void DriftMonitor::reset() {
  const DriftConfig config = config_;
  *this = DriftMonitor(config);
}

}  // namespace pwx::serve
