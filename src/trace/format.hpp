// On-disk format internals shared by the OTF2-lite reader and writer.
//
// One format, "OTF2LTv4": 8-byte magic, body, u64 lane-FNV-1a footer over
// the body. The body is an alignment-safe section table the reader parses
// in place. The fixed-size header (section count + four 16-byte table
// entries) is 72 bytes, so with the 8-byte magic the first section starts
// at file offset 80; every section is zero-padded to a multiple of 8 and
// its *padded* size is what the table records. Inside the event section the
// columns are ordered times (u64), values (f64), ids (u32), kinds (u8) —
// widest first — so every column begins on an 8-byte boundary both in the
// file and relative to any 8-byte-aligned copy or page-aligned mapping.
//
// parse_trace_file is the one entry point every reader goes through: the
// file reader (trace/mapped.hpp) over a mapping or a read() buffer, the
// stream reader read_trace (serialize.cpp) over an AlignedBuffer, and the
// fuzz harness. It runs check_magic (any other OTF2-lite version magic —
// "OTF2LTv2", "OTF2LTv3", ... — is rejected with the same "unsupported
// OTF2-lite version" IoError at byte 0), the footer-length check,
// parse_trace_v4 and, unless deferred, verify_checksum_v4. So hostile input
// is rejected *identically* — same IoError message, code, byte offset, and
// record index — whichever way the bytes arrived. Checks that the owned
// Trace builder would otherwise enforce (duplicate/empty metric names,
// duplicate regions, duplicate attribute keys) live in parse_trace_v4 for
// the same reason: the file reader never materializes a Trace. Checksum
// verification is a separate one-shot lane-FNV pass so callers keep the
// structure-first / integrity-last error ordering, or defer integrity
// entirely per MapOptions.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "trace/view.hpp"

namespace pwx::trace::format {

inline constexpr char kMagicV4[8] = {'O', 'T', 'F', '2', 'L', 'T', 'v', '4'};
inline constexpr std::size_t kMagicBytes = 8;

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Section ids, in file order.
enum : std::uint32_t {
  kSectionAttributes = 1,
  kSectionMetrics = 2,
  kSectionRegions = 3,
  kSectionEvents = 4,
};
inline constexpr std::size_t kSectionCount = 4;

/// Bytes per event across the four columns: u64 time + u8 kind + u32 id + f64.
inline constexpr std::size_t kEventBytes = 8 + 1 + 4 + 8;

/// v4 header: u32 section count + u32 reserved + per section
/// (u32 id + u32 reserved + u64 padded size). 72 bytes, a multiple of 8.
inline constexpr std::size_t kHeaderBytesV4 = 8 + kSectionCount * 16;

/// Round up to the next multiple of 8 (v4 section padding).
inline constexpr std::size_t pad8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

/// FNV-1a over 64-bit little-endian lanes: full words first, then the
/// zero-padded tail, then the length — one multiply per 8 bytes while still
/// flipping on any corrupted or truncated bit. The body hash.
std::uint64_t fnv1a_lanes(const char* data, std::size_t size);

/// Accept the first `size` bytes of a trace only when they start with
/// kMagicV4. Throws IoError at byte 0, record -1: "unsupported OTF2-lite
/// version" for any other "OTF2LTv" magic, "bad magic" for anything else
/// (including inputs shorter than the magic).
void check_magic(const char* data, std::size_t size);

/// One v4 section as validated from the table.
struct SectionInfo {
  std::uint32_t id = 0;
  std::uint64_t file_offset = 0;  ///< absolute offset of the section in the file
  std::uint64_t size = 0;         ///< padded byte size as recorded in the table
};

/// Everything parse_trace_v4 extracts from a v4 body. Strings are views into
/// the body; column pointers alias the body's arrays directly (the body is
/// required to be 8-byte aligned, which both a page-aligned mapping at +8
/// and a heap buffer satisfy). Valid only while the parsed body stays alive.
struct ParsedTraceV4 {
  std::vector<std::pair<std::string_view, std::string_view>> attributes;
  std::vector<MetricView> metrics;
  std::vector<std::string_view> regions;
  std::size_t event_count = 0;
  const std::uint64_t* times = nullptr;
  const double* values = nullptr;
  const std::uint32_t* ids = nullptr;
  const std::uint8_t* kinds = nullptr;
  std::array<SectionInfo, kSectionCount> sections = {};

  /// The parsed body as the shared consumer-facing view. The spans reference
  /// this ParsedTraceV4's vectors, so the view is valid only while *this —
  /// and the body it parsed — stay alive and unmoved.
  TraceView view() const;
};

/// Validate a v4 body (everything between magic and footer) structurally and
/// per record, returning in-place views. `body` must be 8-byte aligned.
/// Throws IoError (code Corruption) carrying the absolute file byte offset
/// and — once inside the event arrays — the offending record index. Does NOT
/// verify the checksum; call verify_checksum_v4 for integrity.
ParsedTraceV4 parse_trace_v4(const char* body, std::size_t body_size);

/// One-shot lane-FNV pass over the body, compared against the u64 footer
/// stored at body + body_size. Throws the "checksum mismatch" IoError
/// (event_count positions the record index).
void verify_checksum_v4(const char* body, std::size_t body_size,
                        std::size_t event_count);

/// Validate a whole trace file image in place: check_magic, the footer
/// length, parse_trace_v4 over the body and — when `verify_checksum` —
/// verify_checksum_v4. `data` must be 8-byte aligned so the body after the
/// magic is too. The returned views alias `data`.
ParsedTraceV4 parse_trace_file(const char* data, std::size_t size, bool verify_checksum);

/// Growable 8-byte-aligned byte storage for trace bytes that are read, not
/// mapped: the file reader's read() path and read_trace's stream. Storage
/// is never zero-filled; growth doubles the capacity, to at least 64 KiB.
class AlignedBuffer {
public:
  explicit AlignedBuffer(std::size_t capacity = 0);

  const char* data() const { return reinterpret_cast<const char*>(words_.get()); }
  std::size_t size() const { return size_; }

  /// The free bytes after size(), doubling the capacity first when none are
  /// left. Fill a prefix of it, then commit() what was written.
  std::span<char> room();
  void commit(std::size_t bytes) { size_ += bytes; }

private:
  std::unique_ptr<std::uint64_t[]> words_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

}  // namespace pwx::trace::format
