// Fuzz harness for the span JSONL reader (obs/trace_export.hpp).
//
// A span stream is outside input: pwx-monitor --trace-replay reads whatever
// file it is given. Feeds arbitrary bytes through obs::parse_span_jsonl,
// which parses every non-empty line as an arbitrary JSON document (so this
// also fuzzes common/json's parser), and enforces:
//
//   * no crash, no sanitizer finding, on any input;
//   * the only escaping exception is pwx::IoError;
//   * reading is deterministic: the same bytes produce the identical
//     outcome — the same records, or the same rejection message — on every
//     run;
//   * an accepted record round-trips: span_to_jsonl_line writes it as a line
//     that reads back to one record span_to_jsonl_line writes as the same
//     line;
//   * the accepted records attribute (attribute_latency) and print
//     (print_attribution_table) as pwx-monitor --trace-replay does: the only
//     escaping exception is pwx::Error, and every number the table prints
//     is finite.
//
// Built under Clang this is a libFuzzer target (LLVMFuzzerTestOneInput);
// under other toolchains fuzz/CMakeLists.txt compiles the same body into a
// standalone replayer that runs every file passed on the command line.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"

namespace {

struct Outcome {
  std::optional<std::string> rejection;  // nullopt = accepted
  std::vector<std::string> lines;        // accepted records, as written
};

Outcome read_once(const std::string& bytes) {
  Outcome out;
  try {
    for (const pwx::obs::SpanRecord& record : pwx::obs::parse_span_jsonl(bytes)) {
      out.lines.push_back(pwx::obs::span_to_jsonl_line(record));
    }
  } catch (const pwx::IoError& e) {
    out.rejection = e.what();
    out.lines.clear();
  }
  // Anything else escapes: that is the crash the fuzzer is hunting.
  return out;
}

/// Attribute and print `records`; a rejection must be a pwx::Error (anything
/// else escapes). The table prints each row's total, self, max and mean and
/// its share of the self-time sum, so those must all be finite.
void check_attribution(const std::vector<pwx::obs::SpanRecord>& records) {
  std::vector<pwx::obs::SpanAttribution> rows;
  try {
    rows = pwx::obs::attribute_latency(records);
  } catch (const pwx::Error&) {
    return;
  }
  double total_self = 0.0;
  for (const pwx::obs::SpanAttribution& row : rows) {
    total_self += row.self_s;
    if (!std::isfinite(row.total_s) || !std::isfinite(row.self_s) ||
        !std::isfinite(row.max_s) || !std::isfinite(total_self)) {
      __builtin_trap();
    }
  }
  std::ostringstream table;
  pwx::obs::print_attribution_table(rows, table);
}

void check_one_input(const std::uint8_t* data, std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);

  const Outcome first = read_once(bytes);
  const Outcome second = read_once(bytes);
  if (first.rejection != second.rejection || first.lines != second.lines) {
    __builtin_trap();  // the same bytes read two ways
  }
  // Round trip: each written line reads back (a throw here escapes) to one
  // record that writes identically.
  std::vector<pwx::obs::SpanRecord> records;
  for (const std::string& line : first.lines) {
    std::vector<pwx::obs::SpanRecord> again = pwx::obs::parse_span_jsonl(line);
    if (again.size() != 1 || pwx::obs::span_to_jsonl_line(again.front()) != line) {
      __builtin_trap();
    }
    records.push_back(std::move(again.front()));
  }
  check_attribution(records);
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
