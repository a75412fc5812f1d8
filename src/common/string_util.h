#ifndef RDFREF_COMMON_STRING_UTIL_H_
#define RDFREF_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rdfref {

/// \brief Splits `input` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view input, char sep);

/// \brief Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view input);

/// \brief True when `input` starts with `prefix`.
bool StartsWith(std::string_view input, std::string_view prefix);

/// \brief True when `input` ends with `suffix`.
bool EndsWith(std::string_view input, std::string_view suffix);

/// \brief Joins `pieces` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// \brief `prefix` followed by the decimal digits of `n` ("s", 3 → "s3").
/// Built by appending: GCC 12 reports a spurious -Wrestrict on the
/// `"literal" + std::string` pattern this replaces.
inline std::string Numbered(std::string_view prefix, uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

}  // namespace rdfref

#endif  // RDFREF_COMMON_STRING_UTIL_H_
