// Hardened decorator over any CounterSource.
//
// Production counter sources glitch: start() fails transiently while another
// tool holds the PMU, reads throw or stall, counters wrap their hardware
// width, and deltas occasionally come back NaN or negative. The
// RobustCounterSource wraps any CounterSource and absorbs that failure
// class so downstream consumers (OnlineEstimator, FleetEstimator) only ever
// see structurally valid samples:
//
//  - start(): retried at once, up to kStartAttempts tries in all; rethrows
//    with context (and health FAILED) only after the last one fails.
//  - read(): up to kReadAttempts underlying reads per call; a watchdog clock
//    flags reads slower than kReadTimeoutS; negative deltas larger than half
//    the counter width (kCounterWrap) are corrected as overflow wraps;
//    NaN/Inf or residual-negative samples are discarded and re-read.
//  - health: OK -> DEGRADED on any fault, DEGRADED -> OK after
//    kRecoverStreak clean reads, DEGRADED -> FAILED when a read exhausts its
//    retry budget twice in a row (FAILED is terminal: read() returns
//    nullopt). While DEGRADED with the budget exhausted once, the last good
//    sample is re-served (held) so the estimate stream stays alive, at most
//    kMaxHeldSamples times in a row.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "core/estimator.hpp"
#include "core/health.hpp"

namespace pwx::core {

// Budgets of the hardening layer.
inline constexpr std::size_t kStartAttempts = 4;   ///< total start() tries
inline constexpr std::size_t kReadAttempts = 4;    ///< reads tried per read() call
inline constexpr double kReadTimeoutS = 1.0;       ///< watchdog deadline per read
inline constexpr double kCounterWrap = 281474976710656.0;  ///< 2^48: Haswell width
inline constexpr std::size_t kRecoverStreak = 3;   ///< clean reads, DEGRADED -> OK
inline constexpr std::size_t kMaxHeldSamples = 5;  ///< last-good re-serves in a row

/// Observable record of what the hardening layer absorbed.
struct RobustSourceStats {
  std::size_t reads = 0;              ///< samples delivered downstream
  std::size_t read_errors = 0;        ///< underlying read() throws
  std::size_t invalid_samples = 0;    ///< NaN/negative/zero-time samples discarded
  std::size_t overflow_corrections = 0;
  std::size_t watchdog_timeouts = 0;
  std::size_t held_samples = 0;       ///< last-good re-serves
  std::size_t start_retries = 0;
};

class RobustCounterSource final : public CounterSource {
public:
  /// Does not own `inner`; it must outlive this object.
  explicit RobustCounterSource(CounterSource& inner) : inner_(inner) {}

  std::vector<pmc::Preset> available_events() const override;
  void start(const std::vector<pmc::Preset>& events) override;
  std::optional<CounterSample> read() override;

  HealthState health() const { return health_; }
  const RobustSourceStats& stats() const { return stats_; }

private:
  /// Validate and repair one raw sample; nullopt when unusable.
  std::optional<CounterSample> sanitize(CounterSample sample);
  void note_fault();
  void note_good();

  CounterSource& inner_;
  HealthState health_ = HealthState::Ok;
  RobustSourceStats stats_;
  std::size_t clean_streak_ = 0;
  std::size_t exhausted_in_a_row_ = 0;
  std::size_t held_in_a_row_ = 0;
  std::optional<CounterSample> last_good_;
};

}  // namespace pwx::core
