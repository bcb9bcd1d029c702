// Binary serialization of OTF2-lite traces.
//
// One on-disk format, "OTF2LTv4" — the alignment-safe section-table format
// (see trace/format.hpp for the exact layout). Sections are zero-padded to
// 8-byte multiples and the event columns are ordered widest-first (times,
// values, ids, kinds), so every column sits on an 8-byte boundary. That lets
// the zero-copy reader (trace/mapped.hpp) alias the columns in place inside
// a memory mapping; this buffered reader and the mapped one share a single
// parser, so they accept and reject files identically. The body is covered
// by a lane-FNV-1a checksum footer.
//
// Files from older OTF2-lite generations (v2, v3) are rejected up front
// with an "unsupported OTF2-lite version" IoError at byte 0.
//
// The reader fully validates structure AND integrity, so any truncation or
// bit flip — including ones inside numeric payloads that would parse fine —
// fails loudly instead of producing silent garbage profiles.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace pwx::trace {

/// Serialize to a binary stream / file (v4 aligned section-table format).
/// Throws pwx::IoError on failure.
void write_trace(const Trace& trace, std::ostream& out);
void write_trace_file(const Trace& trace, const std::string& path);

/// Deserialize v4 bytes; throws pwx::IoError on an unsupported version or
/// on malformed, truncated, or corrupted input. The error carries the byte
/// offset and event-record index where parsing stopped
/// (IoError::byte_offset / record_index).
Trace read_trace(std::istream& in);
Trace read_trace_file(const std::string& path);

}  // namespace pwx::trace
