/**
 * @file
 * Shared command-line plumbing for the tools (modelcheck, stress,
 * sweeprunner): one option-cursor class instead of three hand-rolled
 * argv loops, plus the common option vocabulary — numeric values,
 * names from an enum's table (backend selection and the like), and
 * key=value overrides.
 *
 * Deliberately tiny and exit(2)-on-misuse: these are developer
 * tools, so a missing value, a malformed number or an unknown name
 * prints what was wrong and stops.
 */

#ifndef CENJU_TOOLS_CLI_HH
#define CENJU_TOOLS_CLI_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "sim/text.hh"

namespace cenju::cli
{

/**
 * Cursor over argv options. Typical loop:
 * @code
 * cli::OptionParser args(argc, argv);
 * while (args.next()) {
 *     if (args.is("--seeds"))
 *         opt.seeds = args.u64();
 *     else if (args.is("--verbose"))
 *         opt.verbose = true;
 *     else
 *         return usage(argv[0]);
 * }
 * @endcode
 */
class OptionParser
{
  public:
    /**
     * @param first index of the first option (1 for a main() argv;
     * 0 when the caller already shifted past a subcommand).
     */
    OptionParser(int argc, char **argv, int first = 1)
        : _argc(argc), _argv(argv), _i(first - 1)
    {}

    /** Advance to the next option. @retval false when exhausted */
    bool next() { return ++_i < _argc; }

    /** The option the cursor is on. */
    const char *arg() const { return _argv[_i]; }

    /** Does the current option equal @p name? */
    bool is(const char *name) const
    {
        return std::strcmp(_argv[_i], name) == 0;
    }

    /** Consume and return the current option's value argument. */
    const char *
    value()
    {
        if (_i + 1 >= _argc) {
            std::fprintf(stderr, "%s needs a value\n", _argv[_i]);
            std::exit(2);
        }
        return _argv[++_i];
    }

    /** value() as an unsigned 64-bit number. */
    std::uint64_t u64() { return number<std::uint64_t>(); }

    /** value() as an unsigned 32-bit number. */
    unsigned u32() { return number<unsigned>(); }

  private:
    /** value() parsed by parseUnsigned(); exits(2) if malformed. */
    template <typename T>
    T
    number()
    {
        const char *option = arg();
        const char *s = value();
        T v = 0;
        if (!parseUnsigned(s, v)) {
            std::fprintf(stderr,
                         "%s: '%s' is not an unsigned %zu-bit "
                         "number\n",
                         option, s, 8 * sizeof(T));
            std::exit(2);
        }
        return v;
    }

    int _argc;
    char **_argv;
    int _i;
};

/**
 * Consume the current option's value as a name from @p E's table
 * (sim/text.hh); exits(2) naming the option, the value and the
 * valid names on anything else.
 */
template <typename E>
E
choice(OptionParser &args)
{
    const char *option = args.arg();
    const char *s = args.value();
    E e{};
    if (!parseName(s, e)) {
        std::fprintf(stderr, "%s: unknown value '%s' (%s)\n", option, s,
                     nameList<E>().c_str());
        std::exit(2);
    }
    return e;
}

/**
 * Resolve a --jobs request against --shards so the two compose:
 * each sweep worker drives @p shards simulation threads of its own,
 * and oversubscribing jobs x shards past the hardware threads only
 * adds contention. 0 jobs means "use what the machine has left"
 * (hardware / shards); an explicit jobs value is clamped with a
 * warning when jobs x shards exceeds the hardware.
 */
inline unsigned
clampJobs(unsigned jobs, unsigned shards)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    if (shards == 0)
        shards = 1;
    unsigned fit = hw / shards;
    if (fit == 0)
        fit = 1;
    if (jobs == 0)
        return fit;
    if (jobs * shards > hw && jobs > fit) {
        std::fprintf(stderr,
                     "note: clamping --jobs %u to %u (%u shards x "
                     "%u jobs > %u hardware threads)\n",
                     jobs, fit, shards, jobs, hw);
        return fit;
    }
    return jobs;
}

/**
 * Split "key=value" into its parts.
 * @retval false if there is no '=' or the key is empty
 */
inline bool
splitKeyValue(const std::string &s, std::string &key,
              std::string &value)
{
    auto eq = s.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    key = s.substr(0, eq);
    value = s.substr(eq + 1);
    return true;
}

} // namespace cenju::cli

#endif // CENJU_TOOLS_CLI_HH
