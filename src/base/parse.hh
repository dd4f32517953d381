/**
 * @file
 * Strict parsing of numeric command-line operands.
 */

#ifndef MCLOCK_BASE_PARSE_HH_
#define MCLOCK_BASE_PARSE_HH_

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace mclock {

/**
 * Parse all of @p text as a decimal integer no larger than @p max.
 * Empty input, signs, whitespace, trailing characters and overflow are
 * all rejected (bare strtoull would read "abc" as 0 and "12x" as 12).
 */
inline bool
parseUnsigned(const char *text, std::uint64_t max, std::uint64_t &out)
{
    if (!std::isdigit(static_cast<unsigned char>(*text)))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (*end != '\0' || errno == ERANGE || value > max)
        return false;
    out = value;
    return true;
}

}  // namespace mclock

#endif  // MCLOCK_BASE_PARSE_HH_
