// Small string helpers shared across modules.

#ifndef OCDX_UTIL_STR_H_
#define OCDX_UTIL_STR_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace ocdx {

/// Concatenates streamable arguments into a string.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// Joins the elements of `parts` with `sep`.
inline std::string Join(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

/// Parses a plain decimal count: one or more ASCII digits and nothing
/// else (no sign, no whitespace), at most UINT64_MAX. Leaves `*out`
/// untouched and returns false on any other text.
inline bool ParseU64(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace ocdx

#endif  // OCDX_UTIL_STR_H_
