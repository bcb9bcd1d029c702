#include "trace/trace.hpp"

#include <charconv>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace pwx::trace {

std::uint32_t Trace::define_metric(MetricDefinition definition) {
  PWX_REQUIRE(!definition.name.empty(), "metric needs a name");
  PWX_REQUIRE(metric_by_name_.find(definition.name) == metric_by_name_.end(),
              "duplicate metric '", definition.name, "'");
  const auto index = static_cast<std::uint32_t>(metrics_.size());
  metric_by_name_.emplace(definition.name, index);
  metrics_.push_back(std::move(definition));
  return index;
}

bool Trace::has_metric(const std::string& name) const {
  return metric_by_name_.find(name) != metric_by_name_.end();
}

void Trace::check_time(std::uint64_t time_ns) {
  PWX_REQUIRE(time_ns >= last_time_ns_, "events must be chronological: ", time_ns,
              " after ", last_time_ns_);
  last_time_ns_ = time_ns;
}

void Trace::append(RegionEnter event) {
  check_time(event.time_ns);
  events_.push_enter(event.time_ns, events_.regions.intern(event.region));
}

void Trace::append(RegionExit event) {
  check_time(event.time_ns);
  events_.push_exit(event.time_ns, events_.regions.intern(event.region));
}

void Trace::append(MetricEvent event) {
  check_time(event.time_ns);
  PWX_REQUIRE(event.metric < metrics_.size(), "metric index ", event.metric,
              " not defined");
  events_.push_metric(event.time_ns, event.metric, event.value);
}

void Trace::adopt_columns(EventColumns columns) {
  PWX_REQUIRE(events_.empty(), "adopt_columns requires an empty event stream");
  const std::size_t n = columns.size();
  PWX_REQUIRE(columns.kinds.size() == n && columns.ids.size() == n &&
                  columns.values.size() == n,
              "event columns must have equal lengths");
  std::uint64_t last = last_time_ns_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t t = columns.times[i];
    PWX_REQUIRE(t >= last, "events must be chronological: ", t, " after ", last);
    last = t;
    switch (static_cast<EventKind>(columns.kinds[i])) {
      case EventKind::Enter:
      case EventKind::Exit:
        PWX_REQUIRE(columns.ids[i] < columns.regions.size(), "region id ",
                    columns.ids[i], " not interned");
        break;
      case EventKind::Metric:
        PWX_REQUIRE(columns.ids[i] < metrics_.size(), "metric index ",
                    columns.ids[i], " not defined");
        break;
      default:
        PWX_REQUIRE(false, "unknown event kind ", static_cast<int>(columns.kinds[i]));
    }
  }
  last_time_ns_ = last;
  events_ = std::move(columns);
}

void Trace::set_attribute(const std::string& key, const std::string& value) {
  attributes_[key] = value;
}

void Trace::set_attribute(const std::string& key, double value) {
  attributes_[key] = format_double(value, 9);
}

const std::string& Trace::attribute(const std::string& key) const {
  const auto it = attributes_.find(key);
  PWX_REQUIRE(it != attributes_.end(), "missing trace attribute '", key, "'");
  return it->second;
}

double Trace::attribute_as_double(const std::string& key) const {
  const std::string& text = attribute(key);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  PWX_REQUIRE(ec == std::errc{} && ptr == text.data() + text.size(),
              "trace attribute '", key, "' is not numeric: '", text, "'");
  return value;
}

}  // namespace pwx::trace
