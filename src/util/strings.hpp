// Small string utilities shared by the CSV/ARFF readers and report writers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace hmd {

/// Split on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lowercase copy.
std::string to_lower(std::string_view s);

/// True if `s` starts with `prefix` (case-insensitive ASCII).
bool istarts_with(std::string_view s, std::string_view prefix);

/// Parse a finite double, throwing hmd::ParseError with context on
/// failure (NaN and ±inf spellings included).
double parse_double(std::string_view s);

/// Parse a non-negative integer, throwing hmd::ParseError on failure.
long long parse_int(std::string_view s);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Escape for embedding inside a JSON string literal (quotes, backslashes,
/// control characters; input is treated as opaque bytes).
std::string json_escape(std::string_view s);

}  // namespace hmd
