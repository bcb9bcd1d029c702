// Execution simulator.
//
// Plays one workload run on the machine model: threads are pinned compactly
// across sockets, each phase generates per-core native activity from its
// characteristic vector (with seeded stochastic variability and a per-socket
// DRAM bandwidth ceiling), the ground-truth generator produces true socket
// power, and the sensor models deliver what the instrumentation would
// report. The output is a chronological stream of interval records — the
// simulator-level equivalent of the Score-P trace with power/voltage/PMC
// metric plugins attached.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/dvfs.hpp"
#include "cpu/topology.hpp"
#include "cpu/voltage.hpp"
#include "pmc/activity.hpp"
#include "power/ground_truth.hpp"
#include "power/sensor.hpp"
#include "workloads/character.hpp"

namespace pwx::sim {

/// Configuration of one run (one workload execution at a fixed operating
/// point — the paper always fixes f_clk during a run).
struct RunConfig {
  double frequency_ghz = 2.4;
  std::size_t threads = 24;
  double interval_s = 0.2;      ///< trace/metric sampling interval
  double duration_scale = 1.0;  ///< scales the workload's nominal duration
  std::uint64_t seed = 1;
};

/// One sampled interval of a run.
struct IntervalRecord {
  double t_begin_s = 0;
  double t_end_s = 0;
  std::string phase;                  ///< workload phase name
  pmc::ActivityCounts counts;         ///< native events, summed over all cores
  double measured_power_watts = 0;    ///< both sockets' sensors, summed
  double true_power_watts = 0;        ///< ground truth (tests/diagnostics only)
  double measured_voltage = 0;        ///< MSR-style core voltage readout
  std::size_t active_threads = 0;
};

/// Complete result of one run.
struct RunResult {
  std::string workload;
  RunConfig config;
  std::vector<IntervalRecord> intervals;
  double wall_time_s = 0;
};

/// The simulator: machine + ground truth + sensors.
class Engine {
public:
  /// Sensors are seeded from `machine_seed` so a fixed seed models one
  /// concrete instrumented machine across many runs (calibration residuals
  /// persist — as they do on real hardware).
  Engine(cpu::MachineSpec spec, cpu::DvfsTable dvfs, power::GroundTruthPower truth,
         power::SensorSpec sensor_spec, std::uint64_t machine_seed);

  /// Neither copyable nor movable: the voltage sensors point at this
  /// engine's own DVFS table, so a copy or a move would read its source's.
  /// Initialize from a prvalue (`const Engine e = Engine::haswell_ep();`).
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// The paper's platform with default instrumentation.
  static Engine haswell_ep(std::uint64_t machine_seed = 0x5eed);

  /// Execute one run of `workload` under `config`.
  RunResult run(const workloads::Workload& workload, const RunConfig& config) const;

  const cpu::MachineSpec& spec() const { return spec_; }
  const cpu::DvfsTable& dvfs() const { return dvfs_; }
  const power::GroundTruthPower& ground_truth() const { return truth_; }

private:
  cpu::MachineSpec spec_;
  cpu::DvfsTable dvfs_;
  power::GroundTruthPower truth_;
  std::vector<power::PowerSensor> socket_sensors_;
  std::vector<cpu::VoltageSensor> voltage_sensors_;
};

/// Per-core activity generation for one interval (exposed for unit tests).
/// `slowdown` in (0,1] scales the instruction throughput (bandwidth cap).
pmc::ActivityCounts generate_core_activity(const workloads::PhaseCharacter& c,
                                           double frequency_ghz,
                                           double reference_ghz, double interval_s,
                                           double slowdown, std::size_t coactive_cores,
                                           Rng& rng);

/// Effective cycles-per-instruction at a frequency (base + memory part).
double effective_cpi(const workloads::PhaseCharacter& c, double frequency_ghz);

}  // namespace pwx::sim
