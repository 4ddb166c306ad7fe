/**
 * @file
 * Strict parsing of unsigned decimal command-line values.
 */

#ifndef DDSC_SUPPORT_DECIMAL_HH
#define DDSC_SUPPORT_DECIMAL_HH

#include <charconv>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace ddsc::support
{

/**
 * @p text as a plain decimal that fits @p T: digits only, so a sign,
 * whitespace, trailing garbage, an empty string or a value beyond T's
 * range is rejected ("-1" cannot wrap, "4x" cannot read as 4, and a
 * std::uint16_t port cannot take 70000).  False leaves @p out as it
 * was.
 */
template <typename T>
bool
parseDecimal(std::string_view text, T &out)
{
    static_assert(std::is_unsigned_v<T>, "unsigned fields only");
    T value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return false;
    out = value;
    return true;
}

} // namespace ddsc::support

#endif // DDSC_SUPPORT_DECIMAL_HH
