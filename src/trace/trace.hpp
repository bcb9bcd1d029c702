// OTF2-lite application traces.
//
// The paper's acquisition writes Score-P traces in Open Trace Format 2: "a
// stream of events chronologically ordered by the time of their occurrence,
// and information about the state and configuration of the target system".
// This module reproduces that structure at the fidelity the workflow needs:
// region enter/exit events mark workload phases, metric events carry the
// asynchronously sampled power/voltage/PMC values, and global attributes
// record the run configuration (workload, f_clk, thread count).
//
// Storage is columnar (trace/columns.hpp): events live in SoA arrays with an
// interned region table, which is what serialization and phase-profiling
// scan through columns().
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/columns.hpp"

namespace pwx::trace {

/// How a metric was recorded (mirrors the Score-P metric plugin modes).
enum class MetricMode : std::uint8_t {
  AsyncAverage,      ///< value is the average over the sampling interval (power)
  AsyncInstant,      ///< value is an instantaneous sample (voltage)
  CounterIncrement,  ///< value is an event-count increment since the last sample
};

/// Definition of one recorded metric.
struct MetricDefinition {
  std::string name;   ///< e.g. "power" or "PAPI_PRF_DM"
  std::string unit;   ///< e.g. "W", "V", "events"
  MetricMode mode = MetricMode::AsyncAverage;
};

/// An in-memory OTF2-lite trace.
class Trace {
public:
  using AttributeMap = std::unordered_map<std::string, std::string>;

  /// Register a metric; returns its index. Names must be unique.
  std::uint32_t define_metric(MetricDefinition definition);

  /// Whether a metric of that name was defined.
  bool has_metric(const std::string& name) const;

  /// Append an event. Events must be appended in non-decreasing time order
  /// (chronological stream); violations throw.
  void append(RegionEnter event);
  void append(RegionExit event);
  void append(MetricEvent event);

  const std::vector<MetricDefinition>& metrics() const { return metrics_; }

  /// The event stream: the columnar store the serializer and phase profiler
  /// scan.
  const EventColumns& columns() const { return events_; }

  /// Adopt a fully-built columnar store (bulk deserialization). Validates
  /// the same invariants append() enforces — chronological order, metric
  /// ids in range, region ids in range, known kinds — and throws
  /// InvalidArgument on the first violation.
  void adopt_columns(EventColumns columns);

  /// Free-form trace attributes (workload name, frequency, threads, ...).
  /// Unordered; serialization and tools emit them sorted by key.
  AttributeMap& attributes() { return attributes_; }
  const AttributeMap& attributes() const { return attributes_; }

  /// Attribute access with type conversion helpers.
  void set_attribute(const std::string& key, const std::string& value);
  void set_attribute(const std::string& key, double value);
  const std::string& attribute(const std::string& key) const;
  double attribute_as_double(const std::string& key) const;

private:
  void check_time(std::uint64_t time_ns);

  std::vector<MetricDefinition> metrics_;
  std::unordered_map<std::string, std::uint32_t> metric_by_name_;
  EventColumns events_;
  AttributeMap attributes_;
  std::uint64_t last_time_ns_ = 0;
};

}  // namespace pwx::trace
