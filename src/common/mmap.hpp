// Read-only memory-mapped files (POSIX mmap behind RAII).
//
// MappedFile::map_descriptor maps a file the caller already opened, so one
// open() can serve both a size check and the mapping. A MappedFile holds
// exactly one kernel resource, the mapping: it keeps its own reference to
// the file, so the descriptor may be closed as soon as the call returns.
// The mapped bytes alias the page cache — readers that validate structure
// once and then scan the data in place (trace::MappedTraceFile) never copy
// the file through userspace buffers at all.
//
// Lifetime rule: every pointer, std::span, or std::string_view derived from
// data() is valid exactly as long as the owning MappedFile (moves keep the
// mapping alive at the same address; destruction unmaps). Mutating the
// underlying file while mapped is undefined from the reader's point of view
// (MAP_PRIVATE does not snapshot pages that were not yet touched), which is
// why the ingestion layer treats trace files as immutable once written and
// re-ingests on size/mtime change instead of re-reading in place.
#pragma once

#include <cstddef>

namespace pwx {

/// Move-only owner of one read-only file mapping.
class MappedFile {
public:
  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// Map the first `size` bytes of the open descriptor `fd` read-only. The
  /// caller keeps ownership of `fd`. Throws pwx::IoError (code Io) when mmap
  /// refuses — filesystems without mmap support, for instance, which
  /// callers treat as a signal to read the descriptor instead. `size` 0
  /// maps successfully as empty.
  static MappedFile map_descriptor(int fd, std::size_t size);

  const char* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Release the mapping early (idempotent).
  void reset();

private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace pwx
