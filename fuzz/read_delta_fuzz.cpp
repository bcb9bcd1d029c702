// Fuzz harness for the shard-delta frame decoder (fleet/delta.hpp).
//
// Feeds arbitrary bytes through decode_delta and enforces the invariants
// the directed hostile sweep in tests/fleet_tree_test.cpp samples:
//
//   * no crash, no sanitizer finding, on any input;
//   * the only escaping exception is pwx::IoError (typed rejection with a
//     byte offset);
//   * decoding is deterministic: the same bytes produce the identical
//     outcome — same acceptance, or same message/offset/record rejection —
//     on every run;
//   * anything the decoder accepts re-encodes to the exact input bytes
//     (the format has no redundancy a forger could vary), and an accepted
//     frame folds without arithmetic faults.
//
// Built under Clang this is a libFuzzer target (LLVMFuzzerTestOneInput);
// under other toolchains fuzz/CMakeLists.txt compiles the same body into a
// standalone replayer that runs every file passed on the command line.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "core/fleet.hpp"
#include "fleet/delta.hpp"

namespace {

struct Rejection {
  std::string what;
  std::int64_t byte_offset;
  std::int64_t record_index;

  bool operator==(const Rejection& other) const = default;
};

struct Outcome {
  std::optional<Rejection> rejection;  // nullopt = accepted
  std::optional<pwx::fleet::FleetDelta> delta;
};

Outcome decode_once(const char* data, std::size_t size) {
  Outcome out;
  try {
    out.delta = pwx::fleet::decode_delta({data, size});
  } catch (const pwx::IoError& e) {
    out.rejection = Rejection{e.what(), e.byte_offset(), e.record_index()};
  }
  // Anything else escapes: that is the crash the fuzzer is hunting.
  return out;
}

void check_one_input(const std::uint8_t* data, std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);

  const Outcome first = decode_once(bytes.data(), bytes.size());
  const Outcome second = decode_once(bytes.data(), bytes.size());
  if (first.rejection != second.rejection) {
    __builtin_trap();  // nondeterministic rejection diagnosis
  }

  if (first.delta.has_value()) {
    // Round trip: an accepted frame is canonical, so re-encoding must
    // reproduce the input byte-for-byte.
    const std::string reencoded = pwx::fleet::encode_delta(*first.delta);
    if (reencoded != bytes) {
      __builtin_trap();
    }
    // And its records must fold cleanly (the decoder's semantic validation
    // is what makes this safe on hostile input).
    pwx::core::FleetSnapshot snap;
    for (const pwx::core::ShardDeltaRecord& rec : first.delta->shards) {
      pwx::core::fold_shard_delta(snap, rec);
    }
    pwx::fleet::DeltaMerger merger;
    merger.add(*first.delta);
    const pwx::core::FleetSnapshot merged = merger.merge();
    if (pwx::core::snapshot_digest(merged) != pwx::core::snapshot_digest(snap)) {
      __builtin_trap();  // single-leaf merge must equal the direct fold
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size);

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  check_one_input(data, size);
  return 0;
}

#ifdef PWX_FUZZ_STANDALONE
#include <cstdio>
#include <fstream>
#include <iterator>
#include <vector>

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    check_one_input(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                    bytes.size());
    std::fprintf(stderr, "%s: ok (%zu bytes)\n", argv[i], bytes.size());
  }
  return 0;
}
#endif
