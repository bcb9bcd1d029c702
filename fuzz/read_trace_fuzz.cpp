// Fuzz harness for the OTF2-lite trace reader.
//
// Feeds arbitrary bytes through the reader's own in-place entry point,
// format::parse_trace_file — the function MappedTraceFile::open runs over a
// mapping or a read() buffer — and through the stream entry point
// read_trace, and enforces the invariants the test suite's directed sweeps
// sample:
//
//   * no crash, no sanitizer finding, on any input;
//   * the only escaping exception is pwx::IoError (typed rejection);
//   * the entry points agree: both accept or both reject, and when they
//     reject the diagnosis (message, byte offset, record index) is
//     identical.
//
// Built under Clang this is a libFuzzer target (LLVMFuzzerTestOneInput);
// under other toolchains fuzz/CMakeLists.txt compiles the same body into a
// standalone replayer that runs every file passed on the command line and
// additionally opens each one through MappedTraceFile::open, which must
// reach the same verdict — useful for replaying libFuzzer findings and the
// checked-in seed corpus under GCC+ASan/UBSan.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "trace/format.hpp"
#include "trace/serialize.hpp"

namespace {

struct Rejection {
  std::string what;
  std::int64_t byte_offset;
  std::int64_t record_index;

  bool operator==(const Rejection& other) const = default;
};

/// Run one reader, capturing its rejection (nullopt = accepted).
template <typename Fn>
std::optional<Rejection> outcome(Fn&& read) {
  try {
    read();
    return std::nullopt;
  } catch (const pwx::IoError& e) {
    return Rejection{e.what(), e.byte_offset(), e.record_index()};
  }
  // Anything else escapes: that is the crash the fuzzer is hunting.
}

/// The in-place verdict on `data`, after checking that the stream entry
/// point agrees with it.
std::optional<Rejection> check_one_input(const std::uint8_t* data, std::size_t size) {
  // An aligned copy, as the reader's read() source holds the bytes.
  pwx::trace::format::AlignedBuffer buffer(size);
  const std::span<char> room = buffer.room();
  if (size > 0) {
    std::memcpy(room.data(), data, size);
  }
  buffer.commit(size);
  const auto in_place = outcome([&] {
    (void)pwx::trace::format::parse_trace_file(buffer.data(), buffer.size(), true);
  });

  const auto stream = outcome([&] {
    std::istringstream in(std::string(buffer.data(), buffer.size()));
    (void)pwx::trace::read_trace(in);
  });
  if (in_place != stream) {
    __builtin_trap();  // divergent accept/reject between the entry points
  }
  return in_place;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size);

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  (void)check_one_input(data, size);
  return 0;
}

#ifdef PWX_FUZZ_STANDALONE
#include <cstdio>
#include <fstream>
#include <iterator>
#include <vector>

#include "trace/mapped.hpp"

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    const auto in_place = check_one_input(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
    const auto file = outcome([&] { (void)pwx::trace::MappedTraceFile::open(argv[i]); });
    if (file != in_place) {
      std::fprintf(stderr, "%s: MappedTraceFile::open diverged from the in-place parse\n",
                   argv[i]);
      return 1;
    }
    std::fprintf(stderr, "%s: ok (%zu bytes, %s)\n", argv[i], bytes.size(),
                 in_place ? "rejected" : "accepted");
  }
  return 0;
}
#endif
