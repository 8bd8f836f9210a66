/**
 * @file
 * Text forms of configuration values (src/sim/text.hh): one typed
 * test runs every enum name table through nameOf, parseName and
 * envOr, and parseUnsigned must reject every malformed number the
 * tools, reproducers and traces could be handed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>

#include "check/trace.hh"
#include "fault/fault_plan.hh"
#include "protocol/proto_config.hh"
#include "reliable/kind.hh"
#include "sim/text.hh"
#include "transport/transport.hh"
#include "workload/stress_patterns.hh"

namespace cenju
{
namespace
{

/** Sets an environment variable for one scope, then restores it. */
class ScopedEnv
{
  public:
    explicit ScopedEnv(const char *var) : _var(var)
    {
        if (const char *old = std::getenv(var))
            _old = old;
    }

    ~ScopedEnv() { set(_old ? _old->c_str() : nullptr); }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

    /** Set the variable to @p value, or unset it for nullptr. */
    void
    set(const char *value)
    {
        if (value)
            setenv(_var, value, 1);
        else
            unsetenv(_var);
    }

  private:
    const char *_var;
    std::optional<std::string> _old;
};

template <typename E>
class NameTable : public ::testing::Test
{
};

using TextEnums =
    ::testing::Types<TransportKind, ProtocolKind, ReliabilityKind,
                     ProtoBug, StressPattern, fault::FaultKind,
                     check::OpKind>;
TYPED_TEST_SUITE(NameTable, TextEnums);

TYPED_TEST(NameTable, NamesAreUniqueAndRoundTrip)
{
    using E = TypeParam;
    std::set<std::string> seen;
    for (std::size_t i = 0; i < numNames<E>; ++i) {
        auto e = static_cast<E>(i);
        const char *name = nameOf(e);
        ASSERT_NE(name, nullptr) << "entry " << i;
        EXPECT_NE(*name, '\0') << "entry " << i;
        EXPECT_TRUE(seen.insert(name).second) << name << " twice";
        EXPECT_NE(nameList<E>().find(name), std::string::npos);
        E back{};
        ASSERT_TRUE(parseName(name, back)) << name;
        EXPECT_EQ(back, e) << name;
    }
    E out{};
    EXPECT_FALSE(parseName("frobnicate", out));
    EXPECT_FALSE(parseName("", out));
    EXPECT_STREQ(nameOf(static_cast<E>(numNames<E>)), "?");
}

TYPED_TEST(NameTable, EnvOrReadsTheVariable)
{
    using E = TypeParam;
    const char *var = "CENJU_TEXT_TEST";
    const E first = static_cast<E>(0);
    const E last = static_cast<E>(numNames<E> - 1);
    ScopedEnv env(var);

    env.set(nullptr);
    EXPECT_EQ(envOr(var, last), last) << "unset";
    env.set("");
    EXPECT_EQ(envOr(var, last), last) << "empty";
    env.set(nameOf(first));
    EXPECT_EQ(envOr(var, last), first);

    env.set("bogus");
    EXPECT_EXIT((void)envOr(var, last), ::testing::ExitedWithCode(1),
                std::string("CENJU_TEXT_TEST=bogus.*") + nameOf(first) +
                    ".*" + nameOf(last));
}

TEST(ParseUnsigned, AcceptsOnlyAWholeNumberThatFits)
{
    unsigned u = 7;
    ASSERT_TRUE(parseUnsigned("42", u));
    EXPECT_EQ(u, 42u);
    ASSERT_TRUE(parseUnsigned("4294967295", u));
    EXPECT_EQ(u, 4294967295u);
    for (const char *bad : {"", "abc", "16x", "-1", "+1", " 1", "1 ",
                            "0x10", "4294967296"}) {
        unsigned v = 7;
        EXPECT_FALSE(parseUnsigned(bad, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7u) << "'" << bad << "' changed the output";
    }
    std::uint64_t w = 0;
    ASSERT_TRUE(parseUnsigned("18446744073709551615", w));
    EXPECT_EQ(w, UINT64_MAX);
    EXPECT_FALSE(parseUnsigned("18446744073709551616", w));
}

} // namespace
} // namespace cenju
