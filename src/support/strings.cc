#include "support/strings.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace pep::support {

std::vector<std::string>
splitWhitespace(std::string_view text)
{
    std::vector<std::string> tokens;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        std::size_t start = i;
        while (i < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[i]))) {
            ++i;
        }
        if (i > start)
            tokens.emplace_back(text.substr(start, i - start));
    }
    return tokens;
}

std::vector<std::string>
splitChar(std::string_view text, char delim)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == delim) {
            fields.emplace_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return fields;
}

std::string
trim(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1]))) {
        --end;
    }
    return std::string(text.substr(begin, end - begin));
}

bool
parseInt(std::string_view text, std::int64_t &out)
{
    std::string buf(text);
    if (buf.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(buf.c_str(), &end, 0);
    if (errno != 0 || end != buf.c_str() + buf.size())
        return false;
    out = value;
    return true;
}

} // namespace pep::support
