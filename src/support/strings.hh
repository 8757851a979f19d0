#ifndef PEP_SUPPORT_STRINGS_HH
#define PEP_SUPPORT_STRINGS_HH

/**
 * @file
 * String utilities used by the bytecode assembler and table printer.
 */

#include <string>
#include <string_view>
#include <vector>

namespace pep::support {

/** Split on whitespace, dropping empty tokens. */
std::vector<std::string> splitWhitespace(std::string_view text);

/** Split on a single character delimiter, keeping empty fields. */
std::vector<std::string> splitChar(std::string_view text, char delim);

/** Strip leading/trailing whitespace. */
std::string trim(std::string_view text);

/** Parse a signed 64-bit integer; returns false on malformed input. */
bool parseInt(std::string_view text, std::int64_t &out);

} // namespace pep::support

#endif // PEP_SUPPORT_STRINGS_HH
