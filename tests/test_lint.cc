/**
 * @file
 * End-to-end tests for cenju-lint (docs/ANALYSIS.md).
 *
 * The fixture tree under tests/lint/fixtures is a miniature repo
 * with one seeded violation per rule ID plus clean counterparts and
 * allow() exemptions. The linter binary is driven through its real
 * CLI — the same way ctest's lint tier and CI invoke it — and every
 * diagnostic is matched on exact (file, line, rule). A missed
 * seeded violation or a spurious extra one both fail.
 *
 * Paths come in through compile definitions so the test works from
 * any build directory:
 *   CENJU_LINT_BIN       absolute path to the cenju-lint executable
 *   CENJU_LINT_FIXTURES  absolute path to tests/lint/fixtures
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace
{

struct RunResult
{
    int exitCode = -1;
    std::vector<std::string> lines; ///< stdout, one entry per line
};

/** Run the linter with @p args; capture stdout and the exit code. */
RunResult
runLint(const std::string &args)
{
    std::string cmd = std::string(CENJU_LINT_BIN) + " " + args +
                      " 2>/dev/null";
    RunResult r;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return r;
    std::string out;
    char buf[4096];
    while (std::size_t n = std::fread(buf, 1, sizeof buf, pipe))
        out.append(buf, n);
    int status = pclose(pipe);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::stringstream ss(out);
    std::string line;
    while (std::getline(ss, line))
        if (!line.empty())
            r.lines.push_back(line);
    return r;
}

using Finding = std::tuple<std::string, int, std::string>;

/** Parse "path:line: [RULE] msg" into (path, line, rule). */
std::multiset<Finding>
parseFindings(const std::vector<std::string> &lines)
{
    std::multiset<Finding> out;
    for (const std::string &l : lines) {
        std::size_t c1 = l.find(':');
        std::size_t c2 = l.find(':', c1 + 1);
        std::size_t lb = l.find('[', c2 + 1);
        std::size_t rb = l.find(']', lb + 1);
        if (c1 == std::string::npos || c2 == std::string::npos ||
            lb == std::string::npos || rb == std::string::npos) {
            ADD_FAILURE() << "unparseable diagnostic: " << l;
            continue;
        }
        out.emplace(l.substr(0, c1),
                    std::atoi(l.substr(c1 + 1, c2 - c1 - 1).c_str()),
                    l.substr(lb + 1, rb - lb - 1));
    }
    return out;
}

std::string
fixturesSweepArgs()
{
    std::string fx = CENJU_LINT_FIXTURES;
    return "--repo-root " + fx + " " + fx + "/src " + fx + "/tools";
}

std::string
describe(const Finding &f)
{
    return std::get<0>(f) + ":" + std::to_string(std::get<1>(f)) +
           " [" + std::get<2>(f) + "]";
}

/**
 * Every seeded violation in the fixture tree, by exact location.
 * When a fixture or the catalog changes, re-run the linter by hand
 * over the fixtures and update this table deliberately.
 */
const std::multiset<Finding> kExpected = {
    {"src/memory/store.cc", 10, "D003"},
    {"src/policy/bad_back_edge.cc", 4, "L001"},
    {"src/policy/bad_back_edge.cc", 5, "L001"},
    {"src/protocol/bad_layering.cc", 4, "L001"},
    {"src/protocol/bad_layering.cc", 5, "L001"},
    {"src/sim/alloc_bad.hh", 17, "A001"},
    {"src/sim/alloc_bad.hh", 18, "A001"},
    {"src/sim/alloc_bad.hh", 19, "A005"},
    {"src/sim/alloc_bad.hh", 20, "A005"},
    {"src/sim/alloc_bad.hh", 23, "A002"},
    {"src/sim/alloc_bad.hh", 24, "A003"},
    {"src/sim/alloc_bad.hh", 25, "A004"},
    {"src/sim/alloc_bad.hh", 26, "A006"},
    {"src/sim/det_bad.cc", 6, "D001"},
    {"src/sim/det_bad.cc", 7, "D001"},
    {"src/sim/det_bad.cc", 9, "D001"},
    {"src/sim/det_bad.cc", 17, "D002"},
    {"src/sim/det_bad.cc", 18, "D002"},
    {"src/sim/det_bad.cc", 23, "D001"},
    {"src/sim/det_bad.cc", 24, "D001"},
    {"src/sim/det_bad.cc", 25, "D001"},
    {"src/sim/det_bad.cc", 26, "D001"},
    {"src/sim/det_bad.cc", 27, "D001"},
    {"src/sim/det_bad.cc", 28, "D001"},
    {"src/sim/det_bad.cc", 32, "D003"},
    {"src/sim/exempt.hh", 18, "A002"},
    {"src/sim/exempt.hh", 18, "X001"},
    {"src/sim/exempt.hh", 20, "X001"},
    {"src/sim/exempt.hh", 21, "A003"},
    {"src/sim/exempt.hh", 23, "X002"},
    {"src/transport/rogue_backend.cc", 4, "L002"},
    {"src/widgets/widget.hh", 1, "L003"},
    {"tools/driver_scope.cc", 19, "A001"},
    {"tools/driver_scope.cc", 20, "A001"},
};

TEST(Lint, FixtureSweepReportsExactDiagnostics)
{
    RunResult r = runLint(fixturesSweepArgs());
    EXPECT_EQ(r.exitCode, 1);
    std::multiset<Finding> got = parseFindings(r.lines);
    for (const Finding &f : kExpected)
        EXPECT_TRUE(got.count(f)) << "missed seeded violation "
                                  << describe(f);
    for (const Finding &f : got)
        EXPECT_TRUE(kExpected.count(f))
            << "unexpected diagnostic " << describe(f);
    EXPECT_EQ(got.size(), kExpected.size());
}

TEST(Lint, CleanCounterpartsStaySilent)
{
    std::string fx = CENJU_LINT_FIXTURES;
    for (const char *f :
         {"/src/sim/alloc_clean.hh", "/src/sim/det_clean.cc",
          "/src/transport/multistage.hh", "/src/memory/store.hh",
          "/src/policy/clean_policy.hh",
          "/src/reliable/clean_reliable.hh"}) {
        RunResult r = runLint("--repo-root " + fx + " " + fx + f);
        EXPECT_EQ(r.exitCode, 0) << f;
        EXPECT_TRUE(r.lines.empty()) << f << ": " << r.lines[0];
    }
}

TEST(Lint, JustifiedAllowSuppressesWithoutResidue)
{
    // exempt.hh line 16 carries a justified allow(A002): the
    // std::function there must not surface, and no X-diagnostic may
    // point at the directive's own lines (14-15).
    RunResult r = runLint(fixturesSweepArgs());
    for (const Finding &f : parseFindings(r.lines)) {
        if (std::get<0>(f) != "src/sim/exempt.hh")
            continue;
        EXPECT_NE(std::get<1>(f), 16) << describe(f);
        EXPECT_NE(std::get<1>(f), 14) << describe(f);
        EXPECT_NE(std::get<1>(f), 15) << describe(f);
    }
}

TEST(Lint, ListRulesNamesEveryRule)
{
    RunResult r = runLint("--list-rules");
    EXPECT_EQ(r.exitCode, 0);
    std::string all;
    for (const std::string &l : r.lines)
        all += l + "\n";
    for (const char *id :
         {"L001", "L002", "L003", "A001", "A002", "A003", "A004",
          "A005", "A006", "D001", "D002", "D003", "X001", "X002"})
        EXPECT_NE(all.find(id), std::string::npos)
            << "rule " << id << " missing from --list-rules";
}

TEST(Lint, BaselineSuppressesRecordedFindings)
{
    std::string baseline =
        testing::TempDir() + "cenju_lint_baseline.txt";
    RunResult w = runLint(fixturesSweepArgs() +
                          " --write-baseline " + baseline);
    EXPECT_EQ(w.exitCode, 0);

    RunResult r =
        runLint(fixturesSweepArgs() + " --baseline " + baseline);
    EXPECT_EQ(r.exitCode, 0)
        << "baselined findings resurfaced: "
        << (r.lines.empty() ? "" : r.lines[0]);
    EXPECT_TRUE(r.lines.empty());
    std::remove(baseline.c_str());
}

TEST(Lint, UnknownFlagIsUsageError)
{
    EXPECT_EQ(runLint("--no-such-flag").exitCode, 2);
}

} // namespace
