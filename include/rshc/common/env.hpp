#pragma once
// The environment readers behind every RSHC_* toggle and integer knob.
// Unset or empty variables yield the caller's fallback.

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>

#include "rshc/common/error.hpp"

namespace rshc {

/// "0", "off", "OFF" and "false" are off; any other value is on.
[[nodiscard]] inline bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::string_view s(v);
  return !(s == "0" || s == "off" || s == "OFF" || s == "false");
}

/// A whole decimal integer of the fallback's type. Anything else ("5s",
/// "abc", "12 ", "1e3", out of range) throws rshc::Error naming the
/// variable and its value, instead of truncating or keeping a default.
template <typename Int>
[[nodiscard]] Int env_int(const char* name, Int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  Int x = 0;
  const char* end = v + std::strlen(v);
  const auto [ptr, ec] = std::from_chars(v, end, x);
  RSHC_REQUIRE(ec == std::errc() && ptr == end,
               std::string(name) + "='" + v + "' is not an integer");
  return x;
}

}  // namespace rshc
