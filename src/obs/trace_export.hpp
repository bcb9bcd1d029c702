// Exporters over drained SpanRecords (obs/trace.hpp).
//
// Three consumers, all deterministic given the record list:
//
//   * Chrome trace-event JSON — the {"traceEvents":[...]} format Perfetto
//     and chrome://tracing load directly. Complete events ("ph":"X") with
//     microsecond ts/dur; trace/span/parent ids and span attributes ride in
//     "args" so clicking a slice shows its causal identity.
//   * Span JSONL — one {"event":"span",...} line per record for streaming
//     collectors (pwx-monitor --trace, pwx-ingestd flight dumps). The
//     inverse parser reads a recorded stream back for offline replay.
//   * Latency attribution — per-name total/self-time aggregation over a
//     span forest (self = duration minus direct children), rendered as a
//     table: the "which stage owns the p99" view.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "obs/trace.hpp"

namespace pwx::obs {

/// Chrome trace-event document ({"displayTimeUnit","traceEvents":[...]}),
/// one complete ("X") event per span, timestamps in microseconds.
Json chrome_trace_json(const std::vector<SpanRecord>& records);

/// One JSON-lines span event (compact, newline not included):
/// {"event":"span","trace":"<hex>","span":"<hex>","parent":"<hex>"?,
///  "name":...,"start_s":...,"dur_s":...,"thread":N,"attrs":{...}?}
std::string span_to_jsonl_line(const SpanRecord& record);

/// Parse a span JSONL stream back into records. Lines that are not span
/// events (e.g. interleaved {"event":"metrics"} lines) are skipped; a
/// malformed line throws pwx::IoError with its 1-based line number.
std::vector<SpanRecord> parse_span_jsonl(std::string_view text);

/// Per-name latency attribution over a span forest.
struct SpanAttribution {
  std::string name;
  std::uint64_t calls = 0;
  double total_s = 0.0;  ///< sum of durations
  double self_s = 0.0;   ///< total minus time in direct children
  double max_s = 0.0;    ///< slowest single span
};

/// Aggregate records per span name. self_s subtracts each span's direct
/// children (matched by parent_id), so a stage that merely waits on its
/// sub-stages attributes the time to them. Sorted by self_s descending,
/// name ascending on ties — deterministic for golden tests. Throws
/// pwx::Error naming the span when a sum overflows: a parent's children's
/// durations, one name's durations, or the self times over all names.
std::vector<SpanAttribution> attribute_latency(const std::vector<SpanRecord>& records);

/// Render the attribution table (calls, total, self, self%, mean, max).
void print_attribution_table(const std::vector<SpanAttribution>& attribution,
                             std::ostream& out);

}  // namespace pwx::obs
