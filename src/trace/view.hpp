// Non-owning views over OTF2-lite trace data.
//
// The file reader (trace/mapped.hpp) aliases a trace's columns and string
// tables in place, inside a memory mapping or a read() buffer; the owned
// Trace keeps them in std::vectors. TraceView is the common shape both hand
// to the hot consumers: build_phase_profiles and the campaign engines scan a
// TraceView, so in-memory traces and trace files run the exact same code
// and stay bit-identical by construction.
//
// Views never own storage. A TraceView produced by MappedTraceFile is valid
// as long as that file object lives; one produced by TraceViewAdapter is
// valid as long as the adapter AND the adapted Trace live.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace pwx::trace {

/// Non-owning analogue of MetricDefinition.
struct MetricView {
  std::string_view name;
  std::string_view unit;
  MetricMode mode = MetricMode::AsyncAverage;
};

/// Non-owning analogue of EventColumns: the four parallel event columns plus
/// the region-name table, as spans over storage someone else owns.
struct EventColumnsView {
  std::span<const std::uint64_t> times;
  std::span<const std::uint8_t> kinds;
  std::span<const std::uint32_t> ids;
  std::span<const double> values;
  std::span<const std::string_view> regions;

  std::size_t size() const { return times.size(); }
  bool empty() const { return times.empty(); }
};

/// Non-owning analogue of Trace: event columns, metric definitions, and the
/// attribute list (sorted by key, the serialized order).
struct TraceView {
  EventColumnsView columns;
  std::span<const MetricView> metrics;
  std::span<const std::pair<std::string_view, std::string_view>> attributes;

  /// Attribute lookup mirroring Trace::attribute / attribute_as_double,
  /// including the exception contract (InvalidArgument when missing or
  /// non-numeric, with the same message shape).
  std::string_view attribute(std::string_view key) const;
  double attribute_as_double(std::string_view key) const;
  bool has_attribute(std::string_view key) const;
};

/// Presents an owned Trace as a TraceView. Owns only the flat span storage
/// (region/metric/attribute view vectors); the strings and columns stay in
/// the Trace, which must outlive the adapter.
class TraceViewAdapter {
public:
  explicit TraceViewAdapter(const Trace& trace);

  TraceViewAdapter(const TraceViewAdapter&) = delete;
  TraceViewAdapter& operator=(const TraceViewAdapter&) = delete;

  const TraceView& view() const { return view_; }

private:
  std::vector<std::string_view> regions_;
  std::vector<MetricView> metrics_;
  std::vector<std::pair<std::string_view, std::string_view>> attributes_;
  TraceView view_;
};

/// Materialize a view into an owned Trace (copying every column and string).
/// read_trace and read_trace_file build their result this way; the hot
/// paths consume the view directly instead.
Trace to_trace(const TraceView& view);

}  // namespace pwx::trace
