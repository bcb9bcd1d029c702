// Fault-injecting CounterSource decorator.
//
// Wraps any CounterSource and perturbs its behaviour according to a seeded
// fault::FaultPlan — the counter-path half of the fault taxonomy: transient
// start() failures, read() throws, dropped/duplicated samples, stuck and
// overflow-wrapped counters, NaN/negative deltas, and voltage dropouts/
// spikes standing in for the sensor channel. Deterministic under the plan
// seed, so estimator-degradation tests replay identical fault schedules.
//
// Pair with core::RobustCounterSource to exercise the full
// fault -> harden -> estimate chain:
//   SimulatedCounterSource sim(...);
//   FaultyCounterSource chaos(sim, plan);
//   RobustCounterSource robust(chaos);
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "fault/fault.hpp"

namespace pwx::host {

class FaultyCounterSource final : public core::CounterSource {
public:
  /// Does not own `inner`; it must outlive this object. The injector's
  /// decisions are keyed on the site "counter_source".
  FaultyCounterSource(core::CounterSource& inner, fault::FaultPlan plan);

  std::vector<pmc::Preset> available_events() const override;
  void start(const std::vector<pmc::Preset>& events) override;
  std::optional<core::CounterSample> read() override;

  /// Faults injected so far, per kind name.
  const std::map<std::string, std::size_t>& injected() const { return injected_; }

private:
  void note(fault::FaultKind kind);
  /// Corrupt one sample's counters/voltage in place per the read-site plan.
  void corrupt(core::CounterSample& sample, std::uint64_t index);

  core::CounterSource& inner_;
  fault::FaultInjector injector_;
  std::uint64_t start_attempts_ = 0;
  std::uint64_t read_index_ = 0;
  std::optional<core::CounterSample> previous_;  ///< for stuck/duplicate faults
  bool pending_duplicate_ = false;
  std::map<std::string, std::size_t> injected_;
};

}  // namespace pwx::host
