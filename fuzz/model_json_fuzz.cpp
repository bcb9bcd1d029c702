// Fuzz harness for the model file reader (core/model_io.hpp).
//
// A model file is outside input: load_model reads whatever path a tool is
// given, and a retrained model is what a hot swap publishes. Feeds arbitrary
// bytes through core::model_from_json and enforces:
//
//   * no crash, no sanitizer finding, on any input (common/json bounds the
//     nesting its recursive descent will follow);
//   * the only escaping exception is pwx::IoError;
//   * reading is deterministic: the same bytes produce the identical
//     outcome — the same model, or the same rejection message — on every
//     run;
//   * an accepted model round-trips: model_to_json writes it as a text that
//     reads back to a model model_to_json writes as the same text.
//
// Built under Clang this is a libFuzzer target (LLVMFuzzerTestOneInput);
// under other toolchains fuzz/CMakeLists.txt compiles the same body into a
// standalone replayer that runs every file passed on the command line.
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "core/model.hpp"
#include "core/model_io.hpp"

namespace {

struct Outcome {
  std::optional<std::string> rejection;  // nullopt = accepted
  std::optional<pwx::core::PowerModel> model;
};

Outcome read_once(const std::string& bytes) {
  Outcome out;
  try {
    out.model = pwx::core::model_from_json(bytes);
  } catch (const pwx::IoError& e) {
    out.rejection = e.what();
  }
  // Anything else escapes: that is the crash the fuzzer is hunting.
  return out;
}

void check_one_input(const std::uint8_t* data, std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);

  const Outcome first = read_once(bytes);
  const Outcome second = read_once(bytes);
  if (first.rejection != second.rejection) {
    __builtin_trap();  // nondeterministic rejection diagnosis
  }
  if (!first.model.has_value()) {
    return;
  }
  const std::string text = pwx::core::model_to_json(*first.model);
  if (pwx::core::model_to_json(*second.model) != text) {
    __builtin_trap();  // the same bytes read as two different models
  }
  // Round trip: the written text reads back (a throw here escapes) to a
  // model that writes identically.
  if (pwx::core::model_to_json(pwx::core::model_from_json(text)) != text) {
    __builtin_trap();
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
