#include "trace/format.hpp"

#include <cctype>
#include <cstring>
#include <string>
#include <unordered_set>

#include "common/error.hpp"

namespace pwx::trace::format {

std::uint64_t fnv1a_lanes(const char* data, std::size_t size) {
  std::uint64_t hash = kFnvOffset;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    hash ^= word;
    hash *= kFnvPrime;
  }
  if (i < size) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, size - i);
    hash ^= word;
    hash *= kFnvPrime;
  }
  hash ^= static_cast<std::uint64_t>(size);
  hash *= kFnvPrime;
  return hash;
}

void check_magic(const char* data, std::size_t size) {
  constexpr std::size_t kVersionByte = kMagicBytes - 1;
  if (size >= kMagicBytes && std::memcmp(data, kMagicV4, kVersionByte) == 0) {
    const char version = data[kVersionByte];
    if (version == kMagicV4[kVersionByte]) {
      return;
    }
    throw IoError(std::string("trace: unsupported OTF2-lite version v") +
                      (std::isprint(static_cast<unsigned char>(version)) ? version : '?') +
                      " (only v4 is read) (byte 0, record -1)",
                  0, -1);
  }
  throw IoError("trace: bad magic (not an OTF2-lite file)", 0, -1);
}

namespace {

/// Bounds-checked cursor over a v4 body. It reports offsets relative to the
/// file (the body starts at offset kMagicBytes) and serves BOTH readers,
/// which is what makes mapped and buffered rejection bit-identical.
class BodyCursor {
public:
  BodyCursor(const char* data, std::size_t size) : data_(data), size_(size) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }
  const char* at(std::size_t pos) const { return data_ + pos; }

  [[noreturn]] void fail(const std::string& what, std::int64_t record = -1,
                         std::size_t at_pos = static_cast<std::size_t>(-1)) const {
    const std::size_t pos = at_pos == static_cast<std::size_t>(-1) ? pos_ : at_pos;
    const std::size_t offset = pos + kMagicBytes;
    throw IoError("trace: " + what + " (byte " + std::to_string(offset) +
                      ", record " + std::to_string(record) + ")",
                  static_cast<std::int64_t>(offset), record);
  }

  const char* raw(std::size_t size) {
    if (size > remaining()) {
      fail("unexpected end of stream", -1, size_);
    }
    const char* ptr = data_ + pos_;
    pos_ += size;
    return ptr;
  }

  std::uint8_t u8() {
    std::uint8_t v = 0;
    std::memcpy(&v, raw(1), 1);
    return v;
  }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    std::memcpy(&v, raw(4), 4);
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    std::memcpy(&v, raw(8), 8);
    return v;
  }

  std::string_view string() {
    const std::uint32_t len = u32();
    if (len > (1u << 24)) {
      fail("implausible string length " + std::to_string(len));
    }
    return {raw(len), len};
  }

  /// Consume the zero padding between `content_end` and `section_end`; any
  /// nonzero pad byte is a structural error (it would otherwise only show up
  /// as an unlocalized checksum mismatch).
  void skip_padding(std::size_t section_end) {
    while (pos_ < section_end) {
      if (u8() != 0) {
        fail("nonzero section padding", -1, pos_ - 1);
      }
    }
  }

private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

TraceView ParsedTraceV4::view() const {
  TraceView v;
  v.columns.times = {times, event_count};
  v.columns.kinds = {kinds, event_count};
  v.columns.ids = {ids, event_count};
  v.columns.values = {values, event_count};
  v.columns.regions = regions;
  v.metrics = metrics;
  v.attributes = attributes;
  return v;
}

ParsedTraceV4 parse_trace_v4(const char* body, std::size_t body_size) {
  PWX_CHECK(reinterpret_cast<std::uintptr_t>(body) % 8 == 0,
            "v4 body must be 8-byte aligned");
  BodyCursor cursor(body, body_size);
  ParsedTraceV4 out;

  // Section table. A table that doesn't fit is an end-of-stream error at the
  // cut.
  const std::uint32_t section_count = cursor.u32();
  if (section_count != kSectionCount) {
    cursor.fail("unexpected section count " + std::to_string(section_count));
  }
  if (cursor.u32() != 0) {
    cursor.fail("nonzero reserved header field");
  }
  std::size_t section_sizes[kSectionCount] = {};
  std::size_t total = kHeaderBytesV4;
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    const std::uint32_t id = cursor.u32();
    if (id != s + 1) {
      cursor.fail("unexpected section id " + std::to_string(id));
    }
    if (cursor.u32() != 0) {
      cursor.fail("nonzero reserved table field");
    }
    const std::uint64_t size = cursor.u64();
    if (size > body_size) {
      cursor.fail("implausible section size " + std::to_string(size));
    }
    if (size % 8 != 0) {
      cursor.fail("misaligned section size " + std::to_string(size));
    }
    section_sizes[s] = static_cast<std::size_t>(size);
    total += section_sizes[s];
    out.sections[s] = {id, static_cast<std::uint64_t>(kMagicBytes + total - size),
                       size};
  }
  // Trailing bytes beyond the declared sections are a structural error. A
  // *shorter* body (truncated file) is not failed here: parsing continues so
  // the eventual end-of-stream error points at the exact byte and — when the
  // cut lands inside the event arrays — the exact record.
  if (total < body_size) {
    cursor.fail("section sizes do not cover the body (" + std::to_string(total) +
                " vs " + std::to_string(body_size) + ")");
  }

  // Attributes. Keys must be unique: the owned Trace's attribute map would
  // silently fold duplicates, and the mapped view has no map to fold with —
  // rejecting here keeps both paths identical.
  std::size_t section_end = cursor.pos() + section_sizes[0];
  const std::uint32_t attr_count = cursor.u32();
  if (attr_count > (1u << 20)) {
    cursor.fail("implausible attribute count " + std::to_string(attr_count));
  }
  out.attributes.reserve(attr_count);
  {
    std::unordered_set<std::string_view> seen;
    for (std::uint32_t i = 0; i < attr_count; ++i) {
      const std::string_view key = cursor.string();
      const std::string_view value = cursor.string();
      if (!seen.insert(key).second) {
        cursor.fail("duplicate attribute key '" + std::string(key) + "'");
      }
      out.attributes.emplace_back(key, value);
    }
  }
  if (cursor.pos() > section_end ||
      pad8(cursor.pos() + section_sizes[0] - section_end) != section_sizes[0]) {
    cursor.fail("attribute section size mismatch");
  }
  cursor.skip_padding(section_end);

  // Metric definitions. Name checks (non-empty, unique) mirror what
  // Trace::define_metric enforces on the buffered path.
  section_end = cursor.pos() + section_sizes[1];
  const std::uint32_t metric_count = cursor.u32();
  if (metric_count > (1u << 20)) {
    cursor.fail("implausible metric count " + std::to_string(metric_count));
  }
  out.metrics.reserve(metric_count);
  {
    std::unordered_set<std::string_view> seen;
    for (std::uint32_t i = 0; i < metric_count; ++i) {
      MetricView metric;
      metric.name = cursor.string();
      metric.unit = cursor.string();
      const std::uint8_t mode = cursor.u8();
      if (mode > static_cast<std::uint8_t>(MetricMode::CounterIncrement)) {
        cursor.fail("invalid metric mode " + std::to_string(mode));
      }
      metric.mode = static_cast<MetricMode>(mode);
      if (metric.name.empty()) {
        cursor.fail("empty metric name");
      }
      if (!seen.insert(metric.name).second) {
        cursor.fail("duplicate metric '" + std::string(metric.name) + "'");
      }
      out.metrics.push_back(metric);
    }
  }
  if (cursor.pos() > section_end ||
      pad8(cursor.pos() + section_sizes[1] - section_end) != section_sizes[1]) {
    cursor.fail("metric section size mismatch");
  }
  cursor.skip_padding(section_end);

  // Region string table.
  section_end = cursor.pos() + section_sizes[2];
  const std::uint32_t region_count = cursor.u32();
  if (region_count > (1u << 20)) {
    cursor.fail("implausible region count " + std::to_string(region_count));
  }
  out.regions.reserve(region_count);
  {
    std::unordered_set<std::string_view> seen;
    for (std::uint32_t i = 0; i < region_count; ++i) {
      const std::string_view region = cursor.string();
      if (!seen.insert(region).second) {
        cursor.fail("duplicate region name '" + std::string(region) + "'");
      }
      out.regions.push_back(region);
    }
  }
  if (cursor.pos() > section_end ||
      pad8(cursor.pos() + section_sizes[2] - section_end) != section_sizes[2]) {
    cursor.fail("region section size mismatch");
  }
  cursor.skip_padding(section_end);

  // Event section: u64 count, then the columns widest-first so each starts
  // 8-aligned: times (u64 x n), values (f64 x n), ids (u32 x n), kinds
  // (u8 x n), zero pad to 8.
  const std::size_t events_pos = cursor.pos();
  const std::uint64_t event_count = cursor.u64();
  if (event_count > (1ull << 32)) {
    cursor.fail("implausible event count " + std::to_string(event_count));
  }
  const auto n = static_cast<std::size_t>(event_count);
  if (section_sizes[3] != pad8(8 + n * kEventBytes)) {
    cursor.fail("event section size mismatch");
  }
  const std::size_t times_pos = events_pos + 8;
  const std::size_t values_pos = times_pos + n * 8;
  const std::size_t ids_pos = values_pos + n * 8;
  const std::size_t kinds_pos = ids_pos + n * 4;
  section_end = events_pos + section_sizes[3];
  if (section_end > body_size) {
    // Truncated inside the arrays: report the first event with a missing
    // element — the column layout makes that computable from the cut alone.
    const std::size_t cut = body_size;
    std::int64_t record = -1;
    if (cut < values_pos) {
      record = static_cast<std::int64_t>((cut - times_pos) / 8);
    } else if (cut < ids_pos) {
      record = static_cast<std::int64_t>((cut - values_pos) / 8);
    } else if (cut < kinds_pos) {
      record = static_cast<std::int64_t>((cut - ids_pos) / 4);
    } else if (cut < kinds_pos + n) {
      record = static_cast<std::int64_t>(cut - kinds_pos);
    }
    cursor.fail("unexpected end of stream", record, body_size);
  }

  out.event_count = n;
  out.times = reinterpret_cast<const std::uint64_t*>(cursor.at(times_pos));
  out.values = reinterpret_cast<const double*>(cursor.at(values_pos));
  out.ids = reinterpret_cast<const std::uint32_t*>(cursor.at(ids_pos));
  out.kinds = reinterpret_cast<const std::uint8_t*>(cursor.at(kinds_pos));

  // Per-record validation in two phases: one branch-light accumulation pass
  // the compiler can vectorize (the overwhelmingly common all-valid case
  // costs a few simple ops per event), and only on failure a precise rescan
  // that reports the first bad record with a fixed precedence (chronology,
  // then kind, then id) and per-column byte offsets.
  const auto region_count32 = static_cast<std::uint32_t>(region_count);
  const auto metric_count32 = static_cast<std::uint32_t>(metric_count);
  bool all_valid = true;
  for (std::size_t i = 1; i < n; ++i) {
    all_valid &= out.times[i] >= out.times[i - 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t kind = out.kinds[i];
    const bool is_metric = kind == 3;
    const std::uint32_t limit = is_metric ? metric_count32 : region_count32;
    all_valid &= static_cast<bool>((kind >= 1) & (kind <= 3));
    all_valid &= out.ids[i] < limit;
  }
  if (!all_valid) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto record = static_cast<std::int64_t>(i);
      if (i > 0 && out.times[i] < out.times[i - 1]) {
        cursor.fail("events must be chronological", record, times_pos + i * 8);
      }
      const std::uint8_t kind = out.kinds[i];
      if (kind < 1 || kind > 3) {
        cursor.fail("unknown event kind " + std::to_string(kind), record,
                    kinds_pos + i);
      }
      if (kind == 3) {
        if (out.ids[i] >= metric_count32) {
          cursor.fail("metric id " + std::to_string(out.ids[i]) +
                          " out of range (have " + std::to_string(metric_count) + ")",
                      record, ids_pos + i * 4);
        }
      } else if (out.ids[i] >= region_count32) {
        cursor.fail("region id " + std::to_string(out.ids[i]) +
                        " out of range (have " + std::to_string(region_count) + ")",
                    record, ids_pos + i * 4);
      }
    }
  }

  // Event-section padding.
  {
    const char* pad = cursor.at(kinds_pos + n);
    for (std::size_t p = kinds_pos + n; p < section_end; ++p, ++pad) {
      if (*pad != 0) {
        cursor.fail("nonzero section padding", -1, p);
      }
    }
  }
  return out;
}

void verify_checksum_v4(const char* body, std::size_t body_size,
                        std::size_t event_count) {
  std::uint64_t stored = 0;
  std::memcpy(&stored, body + body_size, 8);
  if (stored != fnv1a_lanes(body, body_size)) {
    const std::int64_t record =
        event_count > 0 ? static_cast<std::int64_t>(event_count - 1) : -1;
    const std::size_t offset = body_size + kMagicBytes;
    throw IoError("trace: checksum mismatch (file corrupt) (byte " +
                      std::to_string(offset) + ", record " + std::to_string(record) +
                      ")",
                  static_cast<std::int64_t>(offset), record);
  }
}

}  // namespace pwx::trace::format
