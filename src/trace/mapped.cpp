#include "trace/mapped.hpp"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/error.hpp"

namespace pwx::trace {

namespace {

/// Owns one open descriptor; the mapping, once made, does not need it.
class Descriptor {
public:
  explicit Descriptor(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) {
      throw IoError("trace: cannot open '" + path + "' for reading");
    }
  }
  ~Descriptor() { ::close(fd_); }
  Descriptor(const Descriptor&) = delete;
  Descriptor& operator=(const Descriptor&) = delete;

  int get() const { return fd_; }

private:
  int fd_;
};

/// read() `fd` to EOF. A `capacity` one past the file size lets a regular
/// file arrive in one read plus the zero-byte read that confirms EOF; 0
/// (size unknown, as for a pipe) starts at the buffer's minimum growth.
format::AlignedBuffer read_to_end(int fd, std::size_t capacity, const std::string& path) {
  format::AlignedBuffer buffer(capacity);
  for (;;) {
    const std::span<char> room = buffer.room();
    const ssize_t n = ::read(fd, room.data(), room.size());
    if (n > 0) {
      buffer.commit(static_cast<std::size_t>(n));
    } else if (n == 0) {
      return buffer;
    } else if (errno != EINTR) {
      throw IoError("trace: cannot read '" + path + "': " + std::strerror(errno));
    }
  }
}

}  // namespace

MappedTraceFile MappedTraceFile::open(const std::string& path,
                                      const MapOptions& options) {
  MappedTraceFile out;
  out.path_ = path;

  const Descriptor file(path);
  struct stat st = {};
  const bool regular = ::fstat(file.get(), &st) == 0 && S_ISREG(st.st_mode);
  const auto size = regular ? static_cast<std::size_t>(st.st_size) : 0;
  if (size >= kMapMinBytes) {
    try {
      out.map_ = MappedFile::map_descriptor(file.get(), size);
    } catch (const IoError&) {
      // mmap refused (a filesystem without mapping support): read instead.
    }
  }
  if (!out.mapped()) {
    out.buffer_ = read_to_end(file.get(), regular ? size + 1 : 0, path);
  }

  const std::span<const char> bytes = out.bytes();
  out.parsed_ = format::parse_trace_file(bytes.data(), bytes.size(), options.verify_checksum);
  out.checksum_verified_ = options.verify_checksum;
  out.view_ = out.parsed_.view();
  return out;
}

void MappedTraceFile::verify() {
  if (checksum_verified_) {
    return;
  }
  const std::span<const char> image = bytes();
  format::verify_checksum_v4(image.data() + format::kMagicBytes,
                             image.size() - format::kMagicBytes - 8, parsed_.event_count);
  checksum_verified_ = true;
}

std::span<const char> MappedTraceFile::bytes() const {
  if (mapped()) {
    return {map_.data(), map_.size()};
  }
  return {buffer_.data(), buffer_.size()};
}

}  // namespace pwx::trace
