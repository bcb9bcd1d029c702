// Zero-copy trace ingestion: mmap a v4 OTF2-lite file and alias its event
// columns and string table in place.
//
// MappedTraceFile::open maps the file read-only, validates the section table
// once through the same parse_trace_v4 the buffered reader uses, and exposes
// the result as a TraceView whose spans point straight into the mapping — no
// per-event deserialization, no column copies. Integrity stays a choice:
// by default the one-shot lane-FNV pass runs right after the structural
// parse (structure-first / integrity-last, the same error ordering the
// buffered reader has); with MapOptions::verify_checksum=false the pass is
// deferred until verify() is called, which lets latency-sensitive consumers
// start scanning immediately.
//
// Files mmap itself refuses (pipes and other non-regular files, filesystems
// without mmap support) fall back transparently to the buffered reader. The
// fallback reads the file once, materializes an owned Trace and adapts it
// to the same TraceView type, so consumers never branch on how the bytes
// arrived — and because both paths share one magic check and one parser,
// hostile input (including files of an unsupported OTF2-lite version) is
// rejected with the identical IoError either way.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "common/mmap.hpp"
#include "trace/format.hpp"
#include "trace/trace.hpp"
#include "trace/view.hpp"

namespace pwx::trace {

/// Knobs for MappedTraceFile::open.
struct MapOptions {
  /// Verify the checksum footer during open(). When false, open() performs
  /// only the structural parse; call verify() later (or never, for callers
  /// that re-read known-good files) — checksum_verified() reports the state.
  bool verify_checksum = true;
};

/// A trace backed by a read-only memory mapping (or, transparently, by an
/// owned buffered read when mapping is not possible). Move-only; the
/// TraceView stays valid across moves because spans reference the mapping
/// and heap vectors, whose addresses moving does not change.
class MappedTraceFile {
public:
  /// Open `path`, preferring the zero-copy mapped path.
  /// Throws pwx::IoError on malformed, truncated, or corrupted input with
  /// the same message/byte-offset/record-index the buffered reader emits.
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

  /// True once the checksum footer has been checked (always true for the
  /// buffered fallback and for open() with verify_checksum=true).
  bool checksum_verified() const { return checksum_verified_; }

  /// True when the zero-copy mapped path served this file.
  bool mapped() const { return map_.data() != nullptr; }

  /// Accounting for observability: bytes aliased in place vs. bytes that
  /// went through the buffered copying path. Exactly one of them is the
  /// file size; the other is zero.
  std::size_t bytes_mapped() const { return mapped() ? map_.size() : 0; }
  std::size_t bytes_copied() const { return bytes_copied_; }

  /// The validated section table (empty for the buffered fallback).
  std::span<const format::SectionInfo> sections() const;

  const std::string& path() const { return path_; }

private:
  MappedTraceFile() = default;

  std::string path_;
  MappedFile map_;
  format::ParsedTraceV4 parsed_;  ///< views into map_ (mapped path only)

  // Buffered fallback: an owned Trace adapted to the shared view type.
  // Heap-allocated so the adapter's address (which view_'s spans reference)
  // survives moves of this object.
  std::unique_ptr<Trace> owned_;
  std::unique_ptr<TraceViewAdapter> adapter_;

  TraceView view_;
  std::size_t bytes_copied_ = 0;
  bool checksum_verified_ = false;
};

}  // namespace pwx::trace
