#include "obs/export.hpp"

#include <cmath>
#include <cstdio>

#include "common/table.hpp"
#include "obs/trace.hpp"

namespace pwx::obs {

namespace {

/// Shortest-faithful number formatting shared by the text exporters
/// (integers without a fraction, everything else round-trippable) — the same
/// convention common/json uses, so the formats agree on every value.
std::string format_number(double n) {
  char buf[40];
  if (std::isfinite(n) && n == std::floor(n) && std::fabs(n) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", n);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", n);
  }
  return buf;
}

bool prometheus_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

Json histogram_to_json(const HistogramSnapshot& hist) {
  Json::Object out;
  out["count"] = Json(hist.count);
  out["sum"] = Json(hist.sum);
  out["p50"] = Json(hist.quantile(0.50));
  out["p95"] = Json(hist.quantile(0.95));
  out["p99"] = Json(hist.quantile(0.99));
  Json::Array buckets;
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < hist.counts.size(); ++b) {
    cumulative += hist.counts[b];
    // Only non-empty buckets are exported; the full bound grid would bloat
    // every event line with dozens of zero entries.
    if (hist.counts[b] == 0) {
      continue;
    }
    Json::Object bucket;
    bucket["le"] = b < hist.bounds.size() ? Json(hist.bounds[b]) : Json("+Inf");
    bucket["count"] = Json(cumulative);
    buckets.push_back(Json(std::move(bucket)));
  }
  out["buckets"] = Json(std::move(buckets));
  // Trace exemplars are only attached when an observation ran inside a
  // sampled trace — omitted entirely otherwise, so tracing-off output (and
  // its goldens) is unchanged.
  if (!hist.exemplars.empty()) {
    Json::Array exemplars;
    for (const HistogramExemplar& exemplar : hist.exemplars) {
      Json::Object entry;
      entry["le"] = exemplar.bucket < hist.bounds.size()
                        ? Json(hist.bounds[exemplar.bucket])
                        : Json("+Inf");
      entry["value"] = Json(exemplar.value);
      entry["trace"] = Json(format_span_id(exemplar.trace_id));
      exemplars.push_back(Json(std::move(entry)));
    }
    out["exemplars"] = Json(std::move(exemplars));
  }
  return Json(std::move(out));
}

}  // namespace

std::string prometheus_name(std::string_view name) {
  std::string out = "pwx_";
  out.reserve(name.size() + 4);
  for (char c : name) {
    out += prometheus_char_ok(c) ? c : '_';
  }
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const MetricValue& value : snapshot.values) {
    std::string name = prometheus_name(value.name);
    if (value.kind == MetricKind::Counter) {
      name += "_total";
    }
    if (!value.help.empty()) {
      out += "# HELP " + name + ' ' + value.help + '\n';
    }
    switch (value.kind) {
      case MetricKind::Counter:
        out += "# TYPE " + name + " counter\n";
        out += name + ' ' + format_number(static_cast<double>(value.counter)) + '\n';
        break;
      case MetricKind::Gauge:
        out += "# TYPE " + name + " gauge\n";
        out += name + ' ' + format_number(value.gauge) + '\n';
        break;
      case MetricKind::Histogram: {
        out += "# TYPE " + name + " histogram\n";
        const HistogramSnapshot& hist = value.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < hist.counts.size(); ++b) {
          cumulative += hist.counts[b];
          // Prometheus buckets are cumulative; skip leading empty buckets to
          // keep the exposition readable, but always emit +Inf.
          if (cumulative == 0 && b + 1 < hist.counts.size()) {
            continue;
          }
          const std::string le =
              b < hist.bounds.size() ? format_number(hist.bounds[b]) : "+Inf";
          out += name + "_bucket{le=\"" + le + "\"} " +
                 format_number(static_cast<double>(cumulative)) + '\n';
        }
        out += name + "_sum " + format_number(hist.sum) + '\n';
        out += name + "_count " + format_number(static_cast<double>(hist.count)) + '\n';
        break;
      }
    }
  }
  return out;
}

Json to_json(const MetricsSnapshot& snapshot) {
  Json::Object counters;
  Json::Object gauges;
  Json::Object histograms;
  for (const MetricValue& value : snapshot.values) {
    switch (value.kind) {
      case MetricKind::Counter:
        counters[value.name] = Json(value.counter);
        break;
      case MetricKind::Gauge:
        gauges[value.name] = Json(value.gauge);
        break;
      case MetricKind::Histogram:
        histograms[value.name] = histogram_to_json(value.histogram);
        break;
    }
  }
  Json::Object out;
  out["counters"] = Json(std::move(counters));
  out["gauges"] = Json(std::move(gauges));
  out["histograms"] = Json(std::move(histograms));
  return Json(std::move(out));
}

std::string to_jsonl_line(const MetricsSnapshot& snapshot, std::uint64_t sequence) {
  Json line = to_json(snapshot);
  line["event"] = Json("metrics");
  line["seq"] = Json(sequence);
  return line.dump(-1);
}

void print_table(const MetricsSnapshot& snapshot, std::ostream& out) {
  TablePrinter table({"metric", "kind", "value", "p50", "p95", "p99"});
  for (const MetricValue& value : snapshot.values) {
    switch (value.kind) {
      case MetricKind::Counter:
        table.row({value.name, "counter", std::to_string(value.counter), "", "", ""});
        break;
      case MetricKind::Gauge:
        table.row({value.name, "gauge", format_number(value.gauge), "", "", ""});
        break;
      case MetricKind::Histogram: {
        const HistogramSnapshot& hist = value.histogram;
        table.row({value.name, "histogram",
                   "n=" + std::to_string(hist.count) +
                       " sum=" + format_number(hist.sum),
                   format_number(hist.quantile(0.50)),
                   format_number(hist.quantile(0.95)),
                   format_number(hist.quantile(0.99))});
        break;
      }
    }
  }
  table.print(out);
}

}  // namespace pwx::obs
