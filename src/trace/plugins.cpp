#include "trace/plugins.hpp"

#include "common/error.hpp"
#include "common/units.hpp"
#include "pmc/activity.hpp"

namespace pwx::trace {

std::string papi_metric_name(pmc::Preset preset) {
  return "PAPI_" + std::string(pmc::preset_name(preset));
}

Trace build_standard_trace(const sim::RunResult& run,
                           const std::vector<pmc::Preset>& events) {
  PWX_REQUIRE(!events.empty(), "a standard trace needs at least one counter event");
  Trace trace;
  trace.set_attribute("workload", run.workload);
  trace.set_attribute("frequency_ghz", run.config.frequency_ghz);
  trace.set_attribute("threads", static_cast<double>(run.config.threads));
  trace.set_attribute("interval_s", run.config.interval_s);
  const std::uint32_t power =
      trace.define_metric({"power", "W", MetricMode::AsyncAverage});
  const std::uint32_t voltage =
      trace.define_metric({"core_voltage", "V", MetricMode::AsyncInstant});
  std::vector<std::uint32_t> counters;
  counters.reserve(events.size());
  for (pmc::Preset preset : events) {
    counters.push_back(trace.define_metric(
        {papi_metric_name(preset), "events", MetricMode::CounterIncrement}));
  }

  // Region events bracket contiguous stretches of the same phase; metric
  // events land at interval ends, inside their phase region.
  std::string open_region;
  for (const sim::IntervalRecord& interval : run.intervals) {
    if (interval.phase != open_region) {
      const std::uint64_t t = units::s_to_ns(interval.t_begin_s);
      if (!open_region.empty()) {
        trace.append(RegionExit{t, open_region});
      }
      trace.append(RegionEnter{t, interval.phase});
      open_region = interval.phase;
    }
    const std::uint64_t t = units::s_to_ns(interval.t_end_s);
    trace.append(MetricEvent{t, power, interval.measured_power_watts});
    trace.append(MetricEvent{t, voltage, interval.measured_voltage});
    for (std::size_t i = 0; i < events.size(); ++i) {
      trace.append(
          MetricEvent{t, counters[i], pmc::preset_value(events[i], interval.counts)});
    }
  }
  if (!open_region.empty() && !run.intervals.empty()) {
    trace.append(RegionExit{units::s_to_ns(run.intervals.back().t_end_s), open_region});
  }
  return trace;
}

}  // namespace pwx::trace
