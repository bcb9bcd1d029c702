// Tests for the machine model: topology, DVFS table, thermal, voltage sensor.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "cpu/dvfs.hpp"
#include "cpu/thermal.hpp"
#include "cpu/topology.hpp"
#include "cpu/voltage.hpp"

namespace pwx::cpu {
namespace {

// ---------------------------------------------------------------- topology

TEST(Topology, HaswellEpSpecMatchesPaperPlatform) {
  const MachineSpec spec = haswell_ep_2690v3();
  EXPECT_EQ(spec.sockets, 2u);
  EXPECT_EQ(spec.cores_per_socket, 12u);
  EXPECT_EQ(spec.total_cores(), 24u);
  EXPECT_DOUBLE_EQ(spec.base_frequency_ghz, 2.6);
  EXPECT_EQ(spec.issue_width, 4);
}

TEST(Topology, CompactPinningFillsSocketZeroFirst) {
  const MachineSpec spec = haswell_ep_2690v3();
  const auto p8 = active_cores_per_socket(spec, 8);
  EXPECT_EQ(p8[0], 8u);
  EXPECT_EQ(p8[1], 0u);
  const auto p12 = active_cores_per_socket(spec, 12);
  EXPECT_EQ(p12[0], 12u);
  EXPECT_EQ(p12[1], 0u);
  const auto p13 = active_cores_per_socket(spec, 13);
  EXPECT_EQ(p13[0], 12u);
  EXPECT_EQ(p13[1], 1u);
  const auto p24 = active_cores_per_socket(spec, 24);
  EXPECT_EQ(p24[0], 12u);
  EXPECT_EQ(p24[1], 12u);
}

TEST(Topology, TooManyThreadsRejected) {
  const MachineSpec spec = haswell_ep_2690v3();
  EXPECT_THROW(active_cores_per_socket(spec, 25), InvalidArgument);
}

// ---------------------------------------------------------------- dvfs

TEST(Dvfs, TableCoversPaperFrequencies) {
  const DvfsTable table = haswell_ep_dvfs();
  for (double f : paper_frequencies_ghz()) {
    EXPECT_GE(f, table.min_frequency_ghz());
    EXPECT_LE(f, table.max_frequency_ghz());
  }
  EXPECT_DOUBLE_EQ(selection_frequency_ghz(), 2.4);
  EXPECT_EQ(paper_frequencies_ghz().size(), 5u);
}

TEST(Dvfs, VoltageIsMonotoneInFrequency) {
  const DvfsTable table = haswell_ep_dvfs();
  double prev = 0.0;
  for (double f = 1.2; f <= 2.6; f += 0.05) {
    const double v = table.voltage_at(f);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Dvfs, InterpolationHitsTablePoints) {
  const DvfsTable table = haswell_ep_dvfs();
  for (const PState& p : table.points()) {
    EXPECT_DOUBLE_EQ(table.voltage_at(p.frequency_ghz), p.voltage);
  }
}

TEST(Dvfs, ClampsOutsideRange) {
  const DvfsTable table = haswell_ep_dvfs();
  EXPECT_DOUBLE_EQ(table.voltage_at(0.5), table.points().front().voltage);
  EXPECT_DOUBLE_EQ(table.voltage_at(5.0), table.points().back().voltage);
}

TEST(Dvfs, MidpointInterpolatesLinearly) {
  const DvfsTable table({{1.0, 0.8}, {2.0, 1.0}});
  EXPECT_NEAR(table.voltage_at(1.5), 0.9, 1e-12);
  EXPECT_NEAR(table.voltage_at(1.25), 0.85, 1e-12);
}

TEST(Dvfs, RejectsUnsortedOrShrinkingVoltage) {
  EXPECT_THROW(DvfsTable({{2.0, 1.0}, {1.0, 0.8}}), InvalidArgument);
  EXPECT_THROW(DvfsTable({{1.0, 1.0}, {2.0, 0.8}}), InvalidArgument);
  EXPECT_THROW(DvfsTable({{1.0, 1.0}}), InvalidArgument);
}

TEST(Dvfs, HaswellVoltagesPlausible) {
  const DvfsTable table = haswell_ep_dvfs();
  EXPECT_NEAR(table.voltage_at(1.2), 0.75, 0.02);
  EXPECT_NEAR(table.voltage_at(2.6), 1.05, 0.02);
}

// ---------------------------------------------------------------- thermal

TEST(Thermal, SteadyStateIsLinearInPower) {
  ThermalModel t;
  t.ambient_celsius = 20.0;
  t.r_th_celsius_per_watt = 0.3;
  EXPECT_DOUBLE_EQ(t.steady_state_temperature(0.0), 20.0);
  EXPECT_DOUBLE_EQ(t.steady_state_temperature(100.0), 50.0);
}

TEST(Thermal, DefaultsGivePlausibleDieTemperatures) {
  const ThermalModel t;
  const double idle = t.steady_state_temperature(40.0);
  const double loaded = t.steady_state_temperature(140.0);
  EXPECT_GT(idle, 25.0);
  EXPECT_LT(idle, 50.0);
  EXPECT_GT(loaded, 55.0);
  EXPECT_LT(loaded, 90.0);
}

// ---------------------------------------------------------------- voltage

TEST(Voltage, QuantizationIsMsrResolution) {
  const double lsb = 1.0 / 8192.0;
  EXPECT_DOUBLE_EQ(VoltageSensor::quantize(0.9), std::round(0.9 / lsb) * lsb);
  // Quantization error bounded by half an LSB.
  for (double v : {0.75, 0.8431, 0.9999, 1.0501}) {
    EXPECT_LE(std::fabs(VoltageSensor::quantize(v) - v), lsb / 2 + 1e-15);
  }
}

TEST(Voltage, DroopLowersVoltageUnderLoad) {
  const DvfsTable table = haswell_ep_dvfs();
  const VoltageSensor sensor(table);
  const double unloaded = sensor.true_voltage(2.4, 0.0);
  const double loaded = sensor.true_voltage(2.4, 120.0);
  EXPECT_LT(loaded, unloaded);
  EXPECT_NEAR(unloaded - loaded, 2.5e-4 * 120.0, 1e-9);
}

TEST(Voltage, PartOffsetShiftsReadout) {
  const DvfsTable table = haswell_ep_dvfs();
  const VoltageSensor nominal(table, 0.0);
  const VoltageSensor offset(table, 0.01);
  EXPECT_NEAR(offset.true_voltage(2.0, 0.0) - nominal.true_voltage(2.0, 0.0), 0.01,
              1e-12);
}

TEST(Voltage, ReadIsQuantizedTrueVoltage) {
  const DvfsTable table = haswell_ep_dvfs();
  const VoltageSensor sensor(table);
  const double read = sensor.read(2.4, 80.0);
  const double truth = sensor.true_voltage(2.4, 80.0);
  EXPECT_LE(std::fabs(read - truth), 1.0 / 8192.0);
}

TEST(Voltage, NeverBelowRetentionFloor) {
  const DvfsTable table = haswell_ep_dvfs();
  const VoltageSensor sensor(table, -0.5, 0.1);  // absurd droop
  EXPECT_GE(sensor.true_voltage(1.2, 1000.0), 0.1);
}

}  // namespace
}  // namespace pwx::cpu
