#include "trace/view.hpp"

#include <algorithm>
#include <charconv>
#include <string>

#include "common/error.hpp"

namespace pwx::trace {

std::string_view TraceView::attribute(std::string_view key) const {
  for (const auto& [k, v] : attributes) {
    if (k == key) {
      return v;
    }
  }
  PWX_REQUIRE(false, "missing trace attribute '", key, "'");
  return {};  // unreachable
}

double TraceView::attribute_as_double(std::string_view key) const {
  const std::string_view text = attribute(key);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  PWX_REQUIRE(ec == std::errc{} && ptr == text.data() + text.size(),
              "trace attribute '", key, "' is not numeric: '", text, "'");
  return value;
}

TraceViewAdapter::TraceViewAdapter(const Trace& trace) {
  const EventColumns& columns = trace.columns();

  regions_.reserve(columns.regions.size());
  for (const std::string& name : columns.regions.names()) {
    regions_.emplace_back(name);
  }

  metrics_.reserve(trace.metrics().size());
  for (const MetricDefinition& m : trace.metrics()) {
    metrics_.push_back({m.name, m.unit, m.mode});
  }

  // Sorted by key, matching the serialized attribute order.
  attributes_.reserve(trace.attributes().size());
  for (const auto& [key, value] : trace.attributes()) {
    attributes_.emplace_back(key, value);
  }
  std::sort(attributes_.begin(), attributes_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  view_.columns.times = columns.times;
  view_.columns.kinds = columns.kinds;
  view_.columns.ids = columns.ids;
  view_.columns.values = columns.values;
  view_.columns.regions = regions_;
  view_.metrics = metrics_;
  view_.attributes = attributes_;
}

Trace to_trace(const TraceView& view) {
  Trace trace;
  for (const auto& [key, value] : view.attributes) {
    trace.set_attribute(std::string(key), std::string(value));
  }
  for (const MetricView& m : view.metrics) {
    trace.define_metric({std::string(m.name), std::string(m.unit), m.mode});
  }
  EventColumns columns;
  for (const std::string_view region : view.columns.regions) {
    columns.regions.intern(region);
  }
  columns.times.assign(view.columns.times.begin(), view.columns.times.end());
  columns.kinds.assign(view.columns.kinds.begin(), view.columns.kinds.end());
  columns.ids.assign(view.columns.ids.begin(), view.columns.ids.end());
  columns.values.assign(view.columns.values.begin(), view.columns.values.end());
  trace.adopt_columns(std::move(columns));
  return trace;
}

}  // namespace pwx::trace
