// Scoped pipeline spans: RAII sites that record into the tracer.
//
//   void run() {
//     PWX_SPAN("campaign.run_campaign");
//     ...
//     for (...) { PWX_SPAN("campaign.unit"); ... }
//   }
//
// While a Tracer session is active or the flight recorder is armed
// (obs/trace.hpp), each span becomes a SpanRecord with TraceId/SpanId/parent
// linkage and start/end timestamps; nesting on one thread gives parentage.
// The exporters in obs/trace_export render the drained records as a
// Perfetto trace, span JSONL or a per-name self-time table.
//
// Overhead: with neither a session nor an armed recorder a span costs one
// relaxed load at construction and one branch at destruction, whatever
// obs::enabled() says. Spans are for pipeline stages (runs, folds,
// selection steps), not per-sample hot paths.
#pragma once

#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pwx::obs {

/// RAII span site. Whether it is traced is decided at construction, so
/// starting or stopping a session mid-scope never unbalances the thread's
/// parent stack.
class Span {
public:
  explicit Span(std::string_view name)
      : traced_(tracing_active() && trace_detail::begin_span(name)) {}
  ~Span() {
    if (traced_) {
      trace_detail::end_span();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  bool traced_;  ///< balanced trace_detail frame pushed
};

/// Monotonic wall clock in seconds (steady_clock); the time base all obs
/// timings share.
double monotonic_s();

/// RAII duration recorder into a Histogram, for sites that want a
/// distribution rather than a span. Inactive (one branch each way, no clock
/// read) while telemetry is disabled.
class ScopedTimer {
public:
  explicit ScopedTimer(Histogram& histogram) : histogram_(histogram) {
    if (enabled()) {
      active_ = true;
      start_s_ = monotonic_s();
    }
  }
  ~ScopedTimer() {
    if (active_) {
      histogram_.observe(monotonic_s() - start_s_);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

private:
  Histogram& histogram_;
  bool active_ = false;
  double start_s_ = 0.0;
};

}  // namespace pwx::obs

#define PWX_OBS_CONCAT2(a, b) a##b
#define PWX_OBS_CONCAT(a, b) PWX_OBS_CONCAT2(a, b)
/// Trace the enclosing scope as an obs span.
#define PWX_SPAN(name) ::pwx::obs::Span PWX_OBS_CONCAT(pwx_obs_span_, __LINE__)(name)
