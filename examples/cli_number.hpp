// Strict number parsing for the example binaries' command lines.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace speccal::cli {

/// Whole-string parse: empty text, a sign on an unsigned type, non-numeric
/// characters, trailing junk or an out-of-range value all fail (no atoi or
/// stoul coercion).
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace speccal::cli
