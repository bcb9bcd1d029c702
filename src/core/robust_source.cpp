#include "core/robust_source.hpp"

#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace pwx::core {

namespace {

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

// Counters mirroring RobustSourceStats, plus the health gauge. Names line up
// with the struct fields so dashboards and stats() agree.
struct RobustMetrics {
  obs::Counter& reads;
  obs::Counter& read_errors;
  obs::Counter& invalid_samples;
  obs::Counter& overflow_corrections;
  obs::Counter& watchdog_timeouts;
  obs::Counter& held_samples;
  obs::Counter& start_retries;
  obs::Counter& health_transitions;
  obs::Gauge& health;
};

RobustMetrics& robust_metrics() {
  static RobustMetrics m{
      obs::registry().counter("robust_source.reads", "clean samples delivered"),
      obs::registry().counter("robust_source.read_errors",
                              "inner-source reads that threw"),
      obs::registry().counter("robust_source.invalid_samples",
                              "samples rejected by sanitisation"),
      obs::registry().counter("robust_source.overflow_corrections",
                              "counter-wrap deltas corrected"),
      obs::registry().counter("robust_source.watchdog_timeouts",
                              "reads slower than the watchdog budget"),
      obs::registry().counter("robust_source.held_samples",
                              "stale samples re-served while degraded"),
      obs::registry().counter("robust_source.start_retries",
                              "start attempts that needed a retry"),
      obs::registry().counter("robust_source.health_transitions",
                              "robust source health-state changes"),
      obs::registry().gauge("robust_source.health",
                            "robust source health (0=ok, 1=degraded, 2=failed)"),
  };
  return m;
}

// Publishes the health gauge (and a transition tick) once per public call,
// regardless of which early return fires.
class HealthScope {
 public:
  explicit HealthScope(const HealthState& health)
      : health_(health), before_(health) {}
  HealthScope(const HealthScope&) = delete;
  HealthScope& operator=(const HealthScope&) = delete;
  ~HealthScope() {
    if (!obs::enabled()) {
      return;
    }
    RobustMetrics& m = robust_metrics();
    if (health_ != before_) {
      m.health_transitions.add(1);
    }
    m.health.set(static_cast<double>(health_));
  }

 private:
  const HealthState& health_;
  const HealthState before_;
};

}  // namespace

std::vector<pmc::Preset> RobustCounterSource::available_events() const {
  return inner_.available_events();
}

void RobustCounterSource::start(const std::vector<pmc::Preset>& events) {
  const HealthScope health_scope(health_);
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      inner_.start(events);
      health_ = HealthState::Ok;
      clean_streak_ = 0;
      exhausted_in_a_row_ = 0;
      held_in_a_row_ = 0;
      last_good_.reset();
      return;
    } catch (const Error& e) {
      if (attempt >= kStartAttempts) {
        health_ = HealthState::Failed;
        throw e.with_context("RobustCounterSource: start failed after " +
                             std::to_string(attempt) + " attempts");
      }
      stats_.start_retries += 1;
      robust_metrics().start_retries.add(1);
      PWX_LOG_WARN("RobustCounterSource: start attempt ", attempt, " failed (",
                   e.what(), "), retrying");
    }
  }
}

std::optional<CounterSample> RobustCounterSource::sanitize(CounterSample sample) {
  if (!finite_positive(sample.elapsed_s) || !finite_positive(sample.frequency_ghz) ||
      !finite_positive(sample.voltage)) {
    return std::nullopt;
  }
  for (auto& [preset, count] : sample.counts) {
    if (!std::isfinite(count)) {
      return std::nullopt;
    }
    // A delta more negative than half the counter width is a wrap, not a
    // genuine negative count: the counter passed its maximum mid-interval.
    if (count < -0.5 * kCounterWrap) {
      count += kCounterWrap;
      stats_.overflow_corrections += 1;
      robust_metrics().overflow_corrections.add(1);
    }
    if (count < 0.0) {
      return std::nullopt;
    }
  }
  return sample;
}

void RobustCounterSource::note_fault() {
  clean_streak_ = 0;
  if (health_ == HealthState::Ok) {
    health_ = HealthState::Degraded;
  }
}

void RobustCounterSource::note_good() {
  exhausted_in_a_row_ = 0;
  held_in_a_row_ = 0;
  if (health_ == HealthState::Degraded &&
      ++clean_streak_ >= kRecoverStreak) {
    health_ = HealthState::Ok;
    clean_streak_ = 0;
  }
}

std::optional<CounterSample> RobustCounterSource::read() {
  const HealthScope health_scope(health_);
  if (health_ == HealthState::Failed) {
    return std::nullopt;
  }
  for (std::size_t attempt = 0; attempt < kReadAttempts; ++attempt) {
    std::optional<CounterSample> raw;
    const double begin = monotonic_seconds();
    try {
      raw = inner_.read();
    } catch (const Error& e) {
      stats_.read_errors += 1;
      robust_metrics().read_errors.add(1);
      note_fault();
      PWX_LOG_DEBUG("RobustCounterSource: read threw (", e.what(), ")");
      continue;
    }
    if (monotonic_seconds() - begin > kReadTimeoutS) {
      stats_.watchdog_timeouts += 1;
      robust_metrics().watchdog_timeouts.add(1);
      note_fault();  // stalled reads degrade health, but the data may be good
    }
    if (!raw.has_value()) {
      return std::nullopt;  // source genuinely exhausted; not a fault
    }
    std::optional<CounterSample> clean = sanitize(std::move(*raw));
    if (!clean.has_value()) {
      stats_.invalid_samples += 1;
      robust_metrics().invalid_samples.add(1);
      note_fault();
      continue;
    }
    note_good();
    stats_.reads += 1;
    robust_metrics().reads.add(1);
    last_good_ = clean;
    return clean;
  }

  // Retry budget exhausted. Hold the last good sample to keep the stream
  // alive while DEGRADED; two consecutive exhaustions (or running out of
  // hold budget) is FAILED.
  note_fault();
  exhausted_in_a_row_ += 1;
  if (exhausted_in_a_row_ >= 2 || !last_good_.has_value() ||
      held_in_a_row_ >= kMaxHeldSamples) {
    health_ = HealthState::Failed;
    PWX_LOG_WARN("RobustCounterSource: read retry budget exhausted, FAILED");
    return std::nullopt;
  }
  held_in_a_row_ += 1;
  stats_.held_samples += 1;
  robust_metrics().held_samples.add(1);
  return last_good_;
}

}  // namespace pwx::core
