#include "trace/serialize.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "trace/format.hpp"
#include "trace/view.hpp"

namespace pwx::trace {

namespace {

using format::fnv1a_lanes;
using format::kEventBytes;
using format::kHeaderBytesV4;
using format::kMagicBytes;
using format::kMagicV4;
using format::kSectionAttributes;
using format::kSectionCount;
using format::kSectionEvents;
using format::kSectionMetrics;
using format::kSectionRegions;
using format::pad8;

void put_u64(std::ostream& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.write(buf, 8);
}

/// Attribute pairs sorted by key: the attribute map itself is unordered,
/// but the writer emits attributes in sorted order so identical traces
/// always produce identical bytes.
std::vector<std::pair<const std::string*, const std::string*>> sorted_attributes(
    const Trace& trace) {
  std::vector<std::pair<const std::string*, const std::string*>> attrs;
  attrs.reserve(trace.attributes().size());
  for (const auto& [key, value] : trace.attributes()) {
    attrs.emplace_back(&key, &value);
  }
  std::sort(attrs.begin(), attrs.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  return attrs;
}

void append_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void append_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

void append_string(std::string& out, const std::string& s) {
  append_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

template <typename T>
void append_array(std::string& out, const std::vector<T>& values) {
  out.append(reinterpret_cast<const char*>(values.data()),
             values.size() * sizeof(T));
}

/// Zero-pad `out` so the current section ends on an 8-byte boundary.
void append_padding(std::string& out, std::size_t content_bytes) {
  out.append(pad8(content_bytes) - content_bytes, '\0');
}

}  // namespace

void write_trace(const Trace& trace, std::ostream& out) {
  const EventColumns& columns = trace.columns();
  const auto attrs = sorted_attributes(trace);

  // Exact content sizes up front; each section is recorded and written at
  // its zero-padded size so every section — and every event column inside
  // the widest-first event section — starts on an 8-byte boundary.
  std::size_t attr_bytes = 4;
  for (const auto& [key, value] : attrs) {
    attr_bytes += 8 + key->size() + value->size();
  }
  std::size_t metric_bytes = 4;
  for (const MetricDefinition& metric : trace.metrics()) {
    metric_bytes += 9 + metric.name.size() + metric.unit.size();
  }
  std::size_t region_bytes = 4;
  for (const std::string& region : columns.regions.names()) {
    region_bytes += 4 + region.size();
  }
  const std::size_t event_bytes = 8 + columns.size() * kEventBytes;

  std::string body;
  body.reserve(kHeaderBytesV4 + pad8(attr_bytes) + pad8(metric_bytes) +
               pad8(region_bytes) + pad8(event_bytes));

  append_u32(body, kSectionCount);
  append_u32(body, 0);  // reserved
  const std::pair<std::uint32_t, std::size_t> table[kSectionCount] = {
      {kSectionAttributes, attr_bytes},
      {kSectionMetrics, metric_bytes},
      {kSectionRegions, region_bytes},
      {kSectionEvents, event_bytes},
  };
  for (const auto& [id, size] : table) {
    append_u32(body, id);
    append_u32(body, 0);  // reserved
    append_u64(body, pad8(size));
  }

  append_u32(body, static_cast<std::uint32_t>(attrs.size()));
  for (const auto& [key, value] : attrs) {
    append_string(body, *key);
    append_string(body, *value);
  }
  append_padding(body, attr_bytes);

  append_u32(body, static_cast<std::uint32_t>(trace.metrics().size()));
  for (const MetricDefinition& metric : trace.metrics()) {
    append_string(body, metric.name);
    append_string(body, metric.unit);
    append_u8(body, static_cast<std::uint8_t>(metric.mode));
  }
  append_padding(body, metric_bytes);

  append_u32(body, static_cast<std::uint32_t>(columns.regions.size()));
  for (const std::string& region : columns.regions.names()) {
    append_string(body, region);
  }
  append_padding(body, region_bytes);

  // Columns widest-first (times, values, ids, kinds) so each starts on an
  // 8-byte boundary — the property the zero-copy reader aliases through.
  append_u64(body, columns.size());
  append_array(body, columns.times);
  append_array(body, columns.values);
  append_array(body, columns.ids);
  append_array(body, columns.kinds);
  append_padding(body, event_bytes);

  out.write(kMagicV4, sizeof kMagicV4);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  put_u64(out, fnv1a_lanes(body.data(), body.size()));
  if (!out) {
    throw IoError("trace: write failed");
  }
}

void write_trace_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw IoError("trace: cannot open '" + path + "' for writing");
  }
  write_trace(trace, out);
}

// ------------------------------------------------------------------ readers

namespace {

/// Drain the rest of `in` into one contiguous buffer (single-pass bulk read).
std::string read_remaining(std::istream& in) {
  std::string data;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
    data.append(chunk, static_cast<std::size_t>(in.gcount()));
    if (!in) {
      break;
    }
  }
  return data;
}

Trace read_body_v4(const std::string& buffer) {
  if (buffer.size() < 8) {
    throw IoError("trace: truncated before checksum footer (byte " +
                      std::to_string(buffer.size() + kMagicBytes) + ", record -1)",
                  static_cast<std::int64_t>(buffer.size() + kMagicBytes), -1);
  }
  const std::size_t body_size = buffer.size() - 8;
  // Structure first (precise positions), integrity last — the same parser
  // and checksum pass the mapped reader uses, so both reject identically.
  const format::ParsedTraceV4 parsed = format::parse_trace_v4(buffer.data(), body_size);
  format::verify_checksum_v4(buffer.data(), body_size, parsed.event_count);
  return to_trace(parsed.view());
}

}  // namespace

Trace read_trace(std::istream& in) {
  char magic[kMagicBytes];
  in.read(magic, sizeof magic);
  format::check_magic(magic, static_cast<std::size_t>(in.gcount()));
  const std::string buffer = read_remaining(in);
  try {
    return read_body_v4(buffer);
  } catch (const IoError&) {
    throw;
  } catch (const Error& e) {
    throw IoError(std::string("trace: invalid record: ") + e.what(),
                  static_cast<std::int64_t>(kMagicBytes), -1);
  }
}

Trace read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw IoError("trace: cannot open '" + path + "' for reading");
  }
  return read_trace(in);
}

}  // namespace pwx::trace
