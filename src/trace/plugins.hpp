// Metric plugins (Score-P metric plugin analogue).
//
// The paper attaches three plugins to its traces: scorep_ni (power),
// scorep_x86_adapt (per-core voltage), and scorep_plugin_apapi (asynchronous
// PAPI sampling). build_standard_trace() writes their three metric kinds
// over the simulator's interval stream, yielding the OTF2-lite trace the
// post-processing consumes.
#pragma once

#include <string>
#include <vector>

#include "pmc/events.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace pwx::trace {

/// The metric name of a sampled preset ("PAPI_" + preset name).
std::string papi_metric_name(pmc::Preset preset);

/// A complete trace of one run with phase regions, run-configuration
/// attributes and the paper's plugin set, defined in this order:
///   * "power" (scorep_ni): total measured power, async average;
///   * "core_voltage" (scorep_x86_adapt): core voltage, async instantaneous;
///   * one papi_metric_name counter per preset in `events`
///     (scorep_plugin_apapi): only these presets are recorded, the hardware
///     restriction that forces multi-run acquisition.
/// Each interval appends its metric events in that order at its end time.
/// Throws InvalidArgument when `events` is empty.
Trace build_standard_trace(const sim::RunResult& run,
                           const std::vector<pmc::Preset>& events);

}  // namespace pwx::trace
