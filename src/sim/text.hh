/**
 * @file
 * Text forms of configuration values: enum names and unsigned
 * numbers, as read from the command line, the environment,
 * reproducers and traces.
 *
 * An enum is text-facing when it declares its names once, beside
 * itself, as an ADL-visible table in enumerator order:
 *
 * @code
 * enum class TransportKind : std::uint8_t { Multistage, Ideal, Direct };
 *
 * constexpr auto
 * enumNames(TransportKind)
 * {
 *     return std::array{"multistage", "ideal", "direct"};
 * }
 * @endcode
 *
 * nameOf(), parseName(), nameList() and envOr() then serve every
 * caller, so adding a backend to a seam costs one name in its table.
 */

#ifndef CENJU_SIM_TEXT_HH
#define CENJU_SIM_TEXT_HH

#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>

#include "sim/logging.hh"

namespace cenju
{

/** Number of names in @p E's table. */
template <typename E>
constexpr std::size_t numNames = enumNames(E{}).size();

/** @p e's name, or "?" for a value outside the table. */
template <typename E>
constexpr const char *
nameOf(E e)
{
    constexpr auto table = enumNames(E{});
    auto i = static_cast<std::size_t>(e);
    return i < table.size() ? table[i] : "?";
}

/** Parse a name from @p E's table. @retval false if @p s names none */
template <typename E>
constexpr bool
parseName(std::string_view s, E &out)
{
    constexpr auto table = enumNames(E{});
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (s == table[i]) {
            out = static_cast<E>(i);
            return true;
        }
    }
    return false;
}

/** Every name of @p E, for help and error text: "a | b | c". */
template <typename E>
std::string
nameList()
{
    std::string out;
    for (const char *name : enumNames(E{})) {
        if (!out.empty())
            out += " | ";
        out += name;
    }
    return out;
}

/**
 * The value environment variable @p var selects, or @p fallback
 * when it is unset or empty. An unknown name is fatal and names
 * the variable and the valid names.
 */
template <typename E>
E
envOr(const char *var, E fallback)
{
    E e = fallback;
    const char *s = std::getenv(var);
    if (s && *s && !parseName(s, e))
        fatal("%s=%s: unknown name (%s)", var, s,
              nameList<E>().c_str());
    return e;
}

/**
 * Parse all of @p s as a decimal number that fits @p T: no sign,
 * no spaces, no trailing characters.
 * @retval false (leaving @p out untouched) otherwise
 */
template <typename T>
bool
parseUnsigned(std::string_view s, T &out)
{
    static_assert(std::is_unsigned_v<T>);
    T v = 0;
    const char *end = s.data() + s.size();
    auto [stop, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || stop != end)
        return false;
    out = v;
    return true;
}

/**
 * parseName() for a text-facing enum, parseUnsigned() for a
 * number, so a key/value reader handles every field alike.
 */
template <typename T>
bool
parseValue(std::string_view s, T &out)
{
    if constexpr (std::is_enum_v<T>)
        return parseName(s, out);
    else
        return parseUnsigned(s, out);
}

} // namespace cenju

#endif // CENJU_SIM_TEXT_HH
