// Periodic telemetry snapshot/flush.
//
// A TelemetrySink owns the "when and where" of metric export: it snapshots a
// MetricRegistry, renders the configured format, and writes it to a stream —
// unconditionally via flush(), or rate-limited via maybe_flush(now_s) for
// sampling loops that tick faster than an operator wants output. Time is
// passed in by the caller (monotonic_s() in production, anything in tests),
// so flush cadence is testable without real sleeps. Every flush also emits a
// structured debug log event through common/log, which routes into the JSON
// log sink when one is selected.
#pragma once

#include <cstdint>
#include <ostream>

#include "obs/metrics.hpp"

namespace pwx::obs {

/// Export format of a sink.
enum class ExportFormat { Jsonl, Prometheus, Table };

struct TelemetrySinkConfig {
  double interval_s = 1.0;              ///< minimum spacing for maybe_flush
  ExportFormat format = ExportFormat::Jsonl;
};

class TelemetrySink {
public:
  /// Does not own `out`; the stream must outlive the sink. `registry`
  /// defaults to the process-wide obs::registry().
  explicit TelemetrySink(std::ostream& out, TelemetrySinkConfig config = {},
                         MetricRegistry* registry = nullptr);

  /// Snapshot and write now, regardless of the interval.
  void flush(double now_s);

  /// Flush when at least interval_s has passed since the previous flush
  /// (the first call always flushes). Returns whether output was written.
  bool maybe_flush(double now_s);

  /// Flushes performed so far (the "seq" field of JSONL output).
  std::uint64_t flushes() const { return flushes_; }

  const TelemetrySinkConfig& config() const { return config_; }

private:
  std::ostream& out_;
  TelemetrySinkConfig config_;
  MetricRegistry* registry_;
  std::uint64_t flushes_ = 0;
  double last_flush_s_ = 0.0;
  bool flushed_once_ = false;
};

}  // namespace pwx::obs
