// Small string utilities shared across modules.
#pragma once

#include <string>
#include <string_view>

namespace pwx {

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// printf-style double formatting with fixed precision, locale-independent.
std::string format_double(double value, int precision);

}  // namespace pwx
