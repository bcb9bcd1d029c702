// Trace file ingestion: read a v4 OTF2-lite file once and alias its event
// columns and string table in place.
//
// MappedTraceFile::open is the one way the library reads a trace file. It
// opens the file once and lets fstat pick where the bytes come from: a
// regular file of kMapMinBytes or more is mapped read-only; a smaller file,
// and any file mmap cannot serve (pipes, FIFOs, a refused mapping), is read
// to EOF with read() into an 8-byte-aligned heap buffer. Below the
// threshold the mapping's fixed cost (mmap, page-table setup, munmap and,
// with other threads in the process, TLB shootdowns) exceeds copying the
// bytes; above it, copying every byte costs more than mapping them
// (DESIGN.md "Zero-copy ingestion" has the measured crossover). Both
// sources then go through the same in-place format::parse_trace_file —
// magic, footer length, section table, per-record checks, checksum — and
// yield one TraceView whose spans point into the mapping or the buffer:
// no per-event deserialization, no column copies. read_trace(std::istream&)
// runs the same function over its stream's bytes, so every entry point
// rejects hostile input with the identical IoError.
//
// Integrity stays a choice: by default the one-shot lane-FNV pass runs right
// after the structural parse (structure-first / integrity-last); with
// MapOptions::verify_checksum=false the pass is deferred until verify() is
// called, which lets latency-sensitive consumers start scanning immediately.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "common/mmap.hpp"
#include "trace/format.hpp"
#include "trace/view.hpp"

namespace pwx::trace {

/// Regular files at least this large are mapped; smaller ones are read.
/// Between 256 and 512 KiB both cost the same per open.
inline constexpr std::size_t kMapMinBytes = 256 * 1024;

/// Knobs for MappedTraceFile::open.
struct MapOptions {
  /// Verify the checksum footer during open(). When false, open() performs
  /// only the structural parse; call verify() later (or never, for callers
  /// that re-read known-good files) — checksum_verified() reports the state.
  bool verify_checksum = true;
};

/// A trace backed by a read-only memory mapping or by a heap copy of the
/// file, whichever open() chose. Move-only; the TraceView stays valid
/// across moves because its spans reference the mapping, the heap buffer
/// and heap vectors, none of which moving relocates.
class MappedTraceFile {
public:
  /// Open and validate `path`. Throws pwx::IoError when the file cannot be
  /// opened or read, and on malformed, truncated, or corrupted input with
  /// the message/byte-offset/record-index of format::parse_trace_file.
  static MappedTraceFile open(const std::string& path, const MapOptions& options = {});

  MappedTraceFile(MappedTraceFile&&) noexcept = default;
  MappedTraceFile& operator=(MappedTraceFile&&) noexcept = default;
  MappedTraceFile(const MappedTraceFile&) = delete;
  MappedTraceFile& operator=(const MappedTraceFile&) = delete;

  /// The trace contents. Valid for the lifetime of this object.
  const TraceView& view() const { return view_; }

  /// Run the deferred checksum pass (no-op when already verified).
  /// Throws the usual "checksum mismatch" IoError on corruption.
  void verify();

  /// True once the checksum footer has been checked (always true after
  /// open() with verify_checksum=true).
  bool checksum_verified() const { return checksum_verified_; }

  /// True when the bytes are a memory mapping rather than a read() copy.
  bool mapped() const { return map_.data() != nullptr; }

  /// Accounting for observability: bytes aliased in a mapping vs. bytes
  /// copied in by read(). Exactly one of them is the file size; the other
  /// is zero.
  std::size_t bytes_mapped() const { return map_.size(); }
  std::size_t bytes_copied() const { return buffer_.size(); }

  /// The validated section table.
  std::span<const format::SectionInfo> sections() const { return parsed_.sections; }

  const std::string& path() const { return path_; }

private:
  MappedTraceFile() = default;

  /// The whole file image, from whichever source holds it.
  std::span<const char> bytes() const;

  std::string path_;
  MappedFile map_;               ///< the bytes, when mapped
  format::AlignedBuffer buffer_;  ///< the bytes, when read
  format::ParsedTraceV4 parsed_;  ///< views into map_ or buffer_
  TraceView view_;
  bool checksum_verified_ = false;
};

}  // namespace pwx::trace
