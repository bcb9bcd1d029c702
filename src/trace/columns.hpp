// Columnar (structure-of-arrays) event storage for OTF2-lite traces.
//
// A trace's event stream is stored as parallel columns — time, kind, id,
// value — plus an interned region-name table. Every consumer (serialization,
// phase-profile generation, batch ingestion, the dump tool) operates
// directly on the columns as bulk little-endian arrays and tight linear
// scans. The typed records below are the append-side vocabulary only:
// Trace::append turns each into one column entry.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pwx::trace {

/// A phase/region boundary.
struct RegionEnter {
  std::uint64_t time_ns = 0;
  std::string region;
};
struct RegionExit {
  std::uint64_t time_ns = 0;
  std::string region;
};

/// One metric sample referencing a definition by index.
struct MetricEvent {
  std::uint64_t time_ns = 0;
  std::uint32_t metric = 0;
  double value = 0.0;
};

/// Column tag for one event. The numeric values are the on-disk bytes of
/// the kinds column.
enum class EventKind : std::uint8_t { Enter = 1, Exit = 2, Metric = 3 };

/// Interned string table: names in first-intern order, O(1) id lookup.
class StringTable {
public:
  /// Id of `name`, interning it on first sight.
  std::uint32_t intern(std::string_view name);
  /// Id of `name` when already interned.
  std::optional<std::uint32_t> find(std::string_view name) const;
  const std::string& at(std::uint32_t id) const;
  std::size_t size() const { return names_.size(); }
  bool empty() const { return names_.empty(); }
  const std::vector<std::string>& names() const { return names_; }

private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t, Hash, std::equal_to<>> index_;
};

/// The SoA event store: one entry per event across four parallel arrays.
/// `ids[i]` is a region-table id for Enter/Exit events and a metric index
/// for Metric events; `values[i]` is 0.0 for region events.
struct EventColumns {
  std::vector<std::uint64_t> times;
  std::vector<std::uint8_t> kinds;
  std::vector<std::uint32_t> ids;
  std::vector<double> values;
  StringTable regions;

  std::size_t size() const { return times.size(); }
  bool empty() const { return times.empty(); }
  void reserve(std::size_t n);
  void clear();

  void push_enter(std::uint64_t time_ns, std::uint32_t region_id) {
    push(time_ns, EventKind::Enter, region_id, 0.0);
  }
  void push_exit(std::uint64_t time_ns, std::uint32_t region_id) {
    push(time_ns, EventKind::Exit, region_id, 0.0);
  }
  void push_metric(std::uint64_t time_ns, std::uint32_t metric, double value) {
    push(time_ns, EventKind::Metric, metric, value);
  }

private:
  void push(std::uint64_t time_ns, EventKind kind, std::uint32_t id, double value) {
    times.push_back(time_ns);
    kinds.push_back(static_cast<std::uint8_t>(kind));
    ids.push_back(id);
    values.push_back(value);
  }
};

}  // namespace pwx::trace
