#include "common/mmap.hpp"

#include <cerrno>
#include <cstring>
#include <string>

#include <sys/mman.h>

#include "common/error.hpp"

namespace pwx {

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

MappedFile::~MappedFile() { reset(); }

void MappedFile::reset() {
  if (data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
}

MappedFile MappedFile::map_descriptor(int fd, std::size_t size) {
  MappedFile out;
  if (size == 0) {
    // mmap(length=0) is an error; an empty file is a valid (empty) mapping.
    return out;
  }

  int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
  // Prefault the pages up front: trace readers touch every byte once, and a
  // single populate walk is cheaper than taking per-page soft faults inside
  // the parse/profile scan.
  flags |= MAP_POPULATE;
#endif
  void* addr = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
#ifdef MAP_POPULATE
  if (addr == MAP_FAILED) {
    // Some filesystems reject MAP_POPULATE; retry plain before giving up.
    addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  }
#endif
  if (addr == MAP_FAILED) {
    throw IoError(std::string("mmap: cannot map descriptor: ") + std::strerror(errno),
                  ErrorCode::Io);
  }
  out.data_ = static_cast<const char*>(addr);
  out.size_ = size;
#ifdef POSIX_MADV_SEQUENTIAL
  // Best-effort readahead hint; ignore failures.
  ::posix_madvise(addr, size, POSIX_MADV_SEQUENTIAL);
#endif
  return out;
}

}  // namespace pwx
