#include "obs/trace_export.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <unordered_map>

#include "common/error.hpp"
#include "common/table.hpp"

namespace pwx::obs {

namespace {

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return std::string(buf);
}

Json attrs_to_json(const std::vector<SpanAttr>& attrs) {
  Json::Object out;
  for (const SpanAttr& attr : attrs) {
    out[attr.key] = Json(attr.value);
  }
  return Json(std::move(out));
}

}  // namespace

Json chrome_trace_json(const std::vector<SpanRecord>& records) {
  Json::Array events;
  events.reserve(records.size());
  for (const SpanRecord& record : records) {
    Json::Object args;
    args["trace_id"] = Json(format_span_id(record.trace_id));
    args["span_id"] = Json(format_span_id(record.span_id));
    if (record.parent_id != 0) {
      args["parent_id"] = Json(format_span_id(record.parent_id));
    }
    for (const SpanAttr& attr : record.attrs) {
      args[attr.key] = Json(attr.value);
    }
    Json::Object event;
    event["ph"] = Json("X");
    event["cat"] = Json("pwx");
    event["name"] = Json(record.name);
    event["pid"] = Json(1);
    event["tid"] = Json(static_cast<std::size_t>(record.thread));
    event["ts"] = Json(record.start_s * 1e6);
    event["dur"] = Json(record.duration_s() * 1e6);
    event["args"] = Json(std::move(args));
    events.emplace_back(std::move(event));
  }
  Json::Object doc;
  doc["displayTimeUnit"] = Json("ms");
  doc["traceEvents"] = Json(std::move(events));
  return Json(std::move(doc));
}

std::string span_to_jsonl_line(const SpanRecord& record) {
  Json::Object line;
  line["event"] = Json("span");
  line["trace"] = Json(format_span_id(record.trace_id));
  line["span"] = Json(format_span_id(record.span_id));
  if (record.parent_id != 0) {
    line["parent"] = Json(format_span_id(record.parent_id));
  }
  line["name"] = Json(record.name);
  line["start_s"] = Json(record.start_s);
  line["dur_s"] = Json(record.duration_s());
  line["thread"] = Json(static_cast<std::size_t>(record.thread));
  if (!record.attrs.empty()) {
    line["attrs"] = attrs_to_json(record.attrs);
  }
  return Json(std::move(line)).dump(-1);
}

std::vector<SpanRecord> parse_span_jsonl(std::string_view text) {
  std::vector<SpanRecord> records;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? eol : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) {
      continue;
    }
    const auto error = [line_no](const std::string& what) {
      return IoError("span jsonl line " + std::to_string(line_no) + ": " + what);
    };
    Json value;
    try {
      value = Json::parse(line);
    } catch (const Error& err) {
      throw error(err.what());
    }
    // A field of the given type, or nullptr when the line has none.
    const auto find = [&](const char* key, Json::Type type) {
      const Json* field = value.find(key);
      if (field != nullptr && field->type() != type) {
        throw error(std::string(key) + " has the wrong JSON type");
      }
      return field;
    };
    const auto require = [&](const char* key, Json::Type type) -> const Json& {
      const Json* field = find(key, type);
      if (field == nullptr) {
        throw error(std::string("missing field '") + key + "'");
      }
      return *field;
    };
    // A span id: 1 to 16 hex digits, as format_span_id writes it.
    const auto hex_id = [&](const Json& field, const char* key) {
      const std::string& id = field.as_string();
      if (id.empty() || id.size() > 16 ||
          !std::all_of(id.begin(), id.end(), [](char c) {
            return std::isxdigit(static_cast<unsigned char>(c)) != 0;
          })) {
        throw error(std::string("bad ") + key + " id '" + id + "'");
      }
      return std::strtoull(id.c_str(), nullptr, 16);
    };

    const Json* event = find("event", Json::Type::String);
    if (event == nullptr || event->as_string() != "span") {
      continue;  // interleaved metrics/log lines are legal in a trace stream
    }
    SpanRecord record;
    record.trace_id = hex_id(require("trace", Json::Type::String), "trace");
    record.span_id = hex_id(require("span", Json::Type::String), "span");
    if (const Json* parent = find("parent", Json::Type::String)) {
      record.parent_id = hex_id(*parent, "parent");
    }
    record.name = require("name", Json::Type::String).as_string();
    record.start_s = require("start_s", Json::Type::Number).as_number();
    const double duration = require("dur_s", Json::Type::Number).as_number();
    if (duration < 0.0) {
      throw error("dur_s is negative");
    }
    record.end_s = record.start_s + duration;
    if (!std::isfinite(record.end_s) || !std::isfinite(record.duration_s())) {
      throw error("start_s + dur_s is not finite");
    }
    if (const Json* thread = find("thread", Json::Type::Number)) {
      const double id = thread->as_number();
      if (!(id >= 0.0 &&
            id <= static_cast<double>(std::numeric_limits<std::uint32_t>::max())) ||
          id != std::floor(id)) {
        throw error("thread is not a 32-bit unsigned integer");
      }
      record.thread = static_cast<std::uint32_t>(id);
    }
    if (const Json* attrs = find("attrs", Json::Type::Object)) {
      for (const auto& [key, attr_value] : attrs->as_object()) {
        if (attr_value.type() != Json::Type::String) {
          throw error("attr '" + key + "' is not a string");
        }
        record.attrs.push_back(SpanAttr{key, attr_value.as_string()});
      }
    }
    records.push_back(std::move(record));
  }
  return records;
}

std::vector<SpanAttribution> attribute_latency(
    const std::vector<SpanRecord>& records) {
  // Every duration is finite (parse_span_jsonl rejects the rest), but their
  // sums can overflow. An infinite sum would make a self time inf - inf =
  // NaN, which the sort below cannot order, so each sum is checked.
  const auto require_finite = [](double sum, const std::string& name,
                                 const char* what) {
    if (!std::isfinite(sum)) {
      throw Error("span '" + name + "': " + what + " is not finite");
    }
  };
  // Sum direct-children time per parent span so self = total - children.
  std::unordered_map<std::uint64_t, double> child_time;
  child_time.reserve(records.size());
  for (const SpanRecord& record : records) {
    if (record.parent_id != 0) {
      child_time[record.parent_id] += record.duration_s();
    }
  }
  std::unordered_map<std::string, SpanAttribution> by_name;
  for (const SpanRecord& record : records) {
    SpanAttribution& cell = by_name[record.name];
    cell.name = record.name;
    cell.calls += 1;
    const double duration = record.duration_s();
    cell.total_s += duration;
    require_finite(cell.total_s, record.name, "the sum of its durations");
    cell.max_s = std::max(cell.max_s, duration);
    const auto children = child_time.find(record.span_id);
    if (children != child_time.end()) {
      require_finite(children->second, record.name,
                     "the sum of its children's durations");
    }
    const double self =
        duration - (children == child_time.end() ? 0.0 : children->second);
    cell.self_s += std::max(self, 0.0);
  }
  std::vector<SpanAttribution> out;
  out.reserve(by_name.size());
  for (auto& [name, cell] : by_name) {
    out.push_back(std::move(cell));
  }
  std::sort(out.begin(), out.end(),
            [](const SpanAttribution& a, const SpanAttribution& b) {
              if (a.self_s != b.self_s) {
                return a.self_s > b.self_s;
              }
              return a.name < b.name;
            });
  // print_attribution_table divides by this sum, added in this order.
  double total_self = 0.0;
  for (const SpanAttribution& cell : out) {
    total_self += cell.self_s;
    require_finite(total_self, cell.name, "the sum of self times");
  }
  return out;
}

void print_attribution_table(const std::vector<SpanAttribution>& attribution,
                             std::ostream& out) {
  double total_self = 0.0;
  for (const SpanAttribution& cell : attribution) {
    total_self += cell.self_s;
  }
  TablePrinter table(
      {"span", "calls", "total [s]", "self [s]", "self %", "mean [s]", "max [s]"});
  for (const SpanAttribution& cell : attribution) {
    const double mean = cell.calls == 0 ? 0.0 : cell.total_s / cell.calls;
    const double pct = total_self <= 0.0 ? 0.0 : 100.0 * cell.self_s / total_self;
    table.row({cell.name, std::to_string(cell.calls), fixed(cell.total_s, 6),
               fixed(cell.self_s, 6), fixed(pct, 1), fixed(mean, 6),
               fixed(cell.max_s, 6)});
  }
  table.print(out);
}

}  // namespace pwx::obs
