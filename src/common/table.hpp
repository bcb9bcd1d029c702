// ASCII table rendering for the reproduction benches.
//
// The benches print the paper's tables in a fixed-width layout so that
// paper-vs-measured comparison is readable in a terminal and stable in
// bench/repro_transcript.txt.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace pwx {

/// Accumulates rows and renders them with column-aligned formatting.
class TablePrinter {
public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Append a data row; must match the header arity.
  void row(std::vector<std::string> cells);

  /// Render with a header underline and 2-space column gaps.
  void print(std::ostream& out) const;

  std::size_t rows() const { return rows_.size(); }

private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pwx
