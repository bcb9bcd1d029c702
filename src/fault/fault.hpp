// Deterministic, seeded fault injection.
//
// Real counter-based power monitors run on machines where instrumentation
// misbehaves: PAPI/perf reads glitch, multiplexed runs die half-way, trace
// files truncate, and power sensors drop samples or spike. This subsystem
// makes that whole failure class *reproducible*: a FaultPlan names which
// fault kinds can fire (with per-kind probability and magnitude), and a
// FaultInjector turns the plan into pure, stateless decisions keyed on
// (plan seed, site string, occurrence index).
// The same plan therefore produces byte-identical fault schedules no matter
// how many threads execute the instrumented code or in which order — the
// property the chaos-campaign bench asserts.
//
// The injector only *decides*; the site-specific corruption helpers that
// apply a decision to simulator runs and serialized traces live in
// fault/inject.hpp, and the CounterSource-level decorator in
// host/faulty_source.hpp.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace pwx::fault {

/// Everything that can go wrong, by instrumentation site.
enum class FaultKind : std::uint8_t {
  // Counter-sample faults (perf/PAPI read path).
  DropSample,       ///< a periodic sample is lost
  DuplicateSample,  ///< a sample is delivered twice
  StuckCounter,     ///< one counter repeats its previous value
  OverflowWrap,     ///< one counter wraps its hardware width (huge negative delta)
  NanDelta,         ///< one counter delta reads as NaN
  NegativeDelta,    ///< one counter delta reads slightly negative
  StartFailure,     ///< CounterSource::start fails transiently
  ReadFailure,      ///< CounterSource::read throws transiently
  // Run-level faults.
  TruncateRun,      ///< a run dies early, losing its tail intervals
  // Trace-file faults.
  TruncateTrace,    ///< serialized trace loses its tail bytes
  CorruptTraceByte, ///< a byte of the serialized trace is bit-flipped
  // Power-sensor faults.
  PowerDropout,     ///< sensor reports ~0 W for an interval
  PowerSpike,       ///< sensor reports a wild spike for an interval
  // Model-refresh faults (the serve retrain/publish pipeline).
  StaleLayoutPublish,  ///< refresher publishes against an outdated generation
  TruncatedCandidate,  ///< candidate model loses trailing coefficients
  ValidationTimeout,   ///< validation gate exceeds its watchdog deadline
};

inline constexpr std::size_t kFaultKindCount = 16;

/// Stable short name ("drop_sample", "power_spike", ...).
std::string_view fault_kind_name(FaultKind kind);

/// One fault channel of a plan.
struct FaultSpec {
  FaultKind kind = FaultKind::DropSample;
  double probability = 0.0;  ///< chance of firing per opportunity, in [0,1]
  double magnitude = 1.0;    ///< kind-specific scale (spike factor, ...)
};

/// A complete seeded fault schedule.
struct FaultPlan {
  std::uint64_t seed = 0x0FA17;
  std::vector<FaultSpec> specs;

  /// Plan with a single fault channel (unit tests).
  static FaultPlan single(FaultKind kind, double probability, std::uint64_t seed,
                          double magnitude = 1.0);

  /// The chaos-campaign schedule: every fault kind armed at once, with
  /// per-opportunity probabilities scaled by `intensity` (1.0 = the default
  /// escalation used by bench/robustness_campaign).
  static FaultPlan escalating(std::uint64_t seed, double intensity = 1.0);

  /// Highest probability configured for `kind` (0 = disarmed).
  double armed_probability(FaultKind kind) const;
};

/// Pure decision engine over a plan. Copyable, cheap, thread-safe (const).
class FaultInjector {
public:
  explicit FaultInjector(FaultPlan plan);

  /// Does fault `kind` fire at `site` for occurrence `index`? Deterministic:
  /// depends only on (plan seed, kind, site, index) and the plan's specs.
  bool fires(FaultKind kind, std::string_view site, std::uint64_t index) const;

  /// Uniform value in [0,1) tied to the same decision key (used to pick
  /// which counter/byte/interval a firing fault corrupts). Independent of
  /// fires()'s draw.
  double draw(FaultKind kind, std::string_view site, std::uint64_t index) const;

  /// Magnitude configured for `kind` (first matching spec; 1.0 if none).
  double magnitude(FaultKind kind) const;

  const FaultPlan& plan() const { return plan_; }

private:
  const FaultSpec* find_spec(FaultKind kind) const;

  FaultPlan plan_;
};

}  // namespace pwx::fault
