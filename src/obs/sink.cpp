#include "obs/sink.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"

namespace pwx::obs {

namespace {
const char* format_name(ExportFormat format) {
  switch (format) {
    case ExportFormat::Jsonl: return "jsonl";
    case ExportFormat::Prometheus: return "prometheus";
    case ExportFormat::Table: return "table";
  }
  return "?";
}
}  // namespace

TelemetrySink::TelemetrySink(std::ostream& out, TelemetrySinkConfig config,
                             MetricRegistry* registry)
    : out_(out), config_(config),
      registry_(registry != nullptr ? registry : &obs::registry()) {
  PWX_REQUIRE(config_.interval_s >= 0.0, "sink interval must be non-negative");
}

void TelemetrySink::flush(double now_s) {
  const MetricsSnapshot snapshot = registry_->snapshot();
  // Feed the flight recorder's "what moved since the last flush" ring; a
  // disarmed recorder makes this one relaxed load.
  if (flight().armed()) {
    flight().note_metrics(snapshot);
  }
  switch (config_.format) {
    case ExportFormat::Jsonl:
      out_ << to_jsonl_line(snapshot, flushes_) << '\n';
      break;
    case ExportFormat::Prometheus:
      out_ << to_prometheus(snapshot);
      break;
    case ExportFormat::Table:
      print_table(snapshot, out_);
      break;
  }
  out_.flush();
  flushes_ += 1;
  last_flush_s_ = now_s;
  flushed_once_ = true;
  log_message(LogLevel::Debug, "telemetry flush",
              {{"seq", std::to_string(flushes_ - 1)},
               {"format", format_name(config_.format)},
               {"metrics", std::to_string(snapshot.values.size())}});
}

bool TelemetrySink::maybe_flush(double now_s) {
  if (flushed_once_ && now_s - last_flush_s_ < config_.interval_s) {
    return false;
  }
  flush(now_s);
  return true;
}

}  // namespace pwx::obs
