// Exporters over metric snapshots.
//
// Three formats, all deterministic given a snapshot (name-sorted input,
// fixed number formatting):
//
//   * Prometheus text exposition (version 0.0.4): names are mapped into the
//     Prometheus alphabet (dots and invalid characters -> '_'), prefixed
//     with "pwx_", counters suffixed with "_total", histograms expanded into
//     cumulative `_bucket{le="..."}` series plus `_sum`/`_count`.
//   * JSON: one object per snapshot ({"counters": {...}, "gauges": {...},
//     "histograms": {...}}), reusing common/json; to_jsonl_line() wraps it in
//     a single-line event envelope for structured event logs.
//   * Human table (common/table): one row per metric with histogram
//     count/mean/p50/p95/p99 summaries.
#pragma once

#include <ostream>
#include <string>

#include "common/json.hpp"
#include "obs/metrics.hpp"

namespace pwx::obs {

/// Map a metric name into the Prometheus alphabet: "pwx_" prefix, invalid
/// characters replaced by '_' (no suffix logic — callers add "_total").
std::string prometheus_name(std::string_view name);

/// Prometheus text exposition of a snapshot.
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}};
/// histograms carry count/sum/p50/p95/p99 plus the raw buckets.
Json to_json(const MetricsSnapshot& snapshot);

/// One JSON-lines event: {"event":"metrics","seq":N,...payload}. Compact
/// (single-line) encoding, newline not included.
std::string to_jsonl_line(const MetricsSnapshot& snapshot, std::uint64_t sequence);

/// Human-readable metric table.
void print_table(const MetricsSnapshot& snapshot, std::ostream& out);

}  // namespace pwx::obs
