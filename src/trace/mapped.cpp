#include "trace/mapped.hpp"

#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/error.hpp"
#include "trace/serialize.hpp"

namespace pwx::trace {

MappedTraceFile MappedTraceFile::open(const std::string& path,
                                      const MapOptions& options) {
  MappedTraceFile out;
  out.path_ = path;

  MappedFile map;
  bool map_ok = true;
  try {
    map = MappedFile::map_readonly(path);
  } catch (const IoError&) {
    // mmap refused (missing or non-regular file, filesystem without mapping
    // support): the buffered reader below serves the file or reports why
    // it cannot.
    map_ok = false;
  }
  if (map_ok) {
    format::check_magic(map.data(), map.size());
    // A page-aligned mapping puts the body (after the 8-byte magic) on an
    // 8-byte boundary; the defensive check keeps an exotic allocator from
    // turning the typed-column aliasing into undefined behavior.
    map_ok = reinterpret_cast<std::uintptr_t>(map.data() + format::kMagicBytes) % 8 == 0;
  }
  if (map_ok) {
    if (map.size() < format::kMagicBytes + 8) {
      // Same diagnostic the buffered reader emits for a body shorter than
      // the footer: the offset is the total file size.
      throw IoError("trace: truncated before checksum footer (byte " +
                        std::to_string(map.size()) + ", record -1)",
                    static_cast<std::int64_t>(map.size()), -1);
    }
    const char* body = map.data() + format::kMagicBytes;
    const std::size_t body_size = map.size() - format::kMagicBytes - 8;
    out.parsed_ = format::parse_trace_v4(body, body_size);
    if (options.verify_checksum) {
      format::verify_checksum_v4(body, body_size, out.parsed_.event_count);
      out.checksum_verified_ = true;
    }
    out.map_ = std::move(map);
    out.view_ = out.parsed_.view();
    return out;
  }

  // Buffered fallback: the file is read exactly once (a pipe cannot be
  // reopened) and parsed by the owned reader — the same magic check and
  // parser — then adapted to the same view type.
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw IoError("trace: cannot open '" + path + "' for reading");
  }
  std::string bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  out.bytes_copied_ = bytes.size();
  std::istringstream stream(std::move(bytes));
  out.owned_ = std::make_unique<Trace>(read_trace(stream));
  out.adapter_ = std::make_unique<TraceViewAdapter>(*out.owned_);
  out.view_ = out.adapter_->view();
  out.checksum_verified_ = true;  // every buffered read verifies the footer
  return out;
}

void MappedTraceFile::verify() {
  if (checksum_verified_ || !mapped()) {
    return;
  }
  format::verify_checksum_v4(map_.data() + format::kMagicBytes,
                             map_.size() - format::kMagicBytes - 8,
                             parsed_.event_count);
  checksum_verified_ = true;
}

std::span<const format::SectionInfo> MappedTraceFile::sections() const {
  if (!mapped()) {
    return {};
  }
  return parsed_.sections;
}

}  // namespace pwx::trace
