/**
 * @file
 * BlockTable property tests (src/sim/block_table.hh).
 *
 * Every node's main memory and directory are a BlockTable indexed
 * by local block number. This file drives random at/find/forEach
 * calls against a std::unordered_map reference model, over indices
 * that cover dense runs from 0, page boundaries and the top block of
 * the 29-bit offset space. The home holds a directory entry's
 * reference across further lookups, so the runs also keep references
 * taken by earlier at() calls and check that they still hold their
 * slots' values while the table grows.
 *
 * Set CENJU_FUZZ_SEED to reproduce or vary a randomized run; the
 * default seed is fixed so plain ctest is deterministic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/block_table.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

using namespace cenju;

namespace
{

std::uint64_t
fuzzSeed()
{
    if (const char *s = std::getenv("CENJU_FUZZ_SEED"))
        return std::strtoull(s, nullptr, 10);
    return 0xb10cull; // fixed default
}

using Table = BlockTable<std::uint64_t>;
constexpr std::uint64_t pageSlots = Table::pageSlots;

/** Highest local block number a 29-bit memory offset can name. */
constexpr std::uint64_t topBlock =
    (std::uint64_t(1) << (sharedOffsetBits - blockShift)) - 1;

/** One table and its reference model. */
struct TableRun
{
    explicit TableRun(std::uint64_t seed) : rng(seed) {}

    /** An index from a dense run from 0, a page boundary, the last
     * two pages of the offset space, or anywhere in the first 64
     * pages. */
    std::uint64_t
    index()
    {
        switch (rng.below(6)) {
          case 0:
          case 1:
            return dense++;
          case 2:
            return (1 + rng.below(64)) * pageSlots - rng.below(2);
          case 3:
            return topBlock - rng.below(2 * pageSlots);
          default:
            return rng.below(64 * pageSlots);
        }
    }

    /** The model's value of slot @p i (0 if never written). */
    std::uint64_t
    expected(std::uint64_t i) const
    {
        auto it = values.find(i);
        return it == values.end() ? 0 : it->second;
    }

    /** at(@p i), recording its page as built. */
    std::uint64_t &
    at(std::uint64_t i)
    {
        built.insert(i / pageSlots);
        return table.at(i);
    }

    /** find() is null exactly on unbuilt pages and reads the model
     * elsewhere. */
    void
    checkFind(std::uint64_t i) const
    {
        const std::uint64_t *p = table.find(i);
        if (!built.count(i / pageSlots)) {
            ASSERT_EQ(p, nullptr) << "index " << i;
            return;
        }
        ASSERT_NE(p, nullptr) << "index " << i;
        ASSERT_EQ(*p, expected(i)) << "index " << i;
    }

    /** forEach visits every slot of every built page, ascending. */
    void
    checkForEach() const
    {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
        table.forEach([&seen](std::uint64_t i, const std::uint64_t &v) {
            seen.emplace_back(i, v);
        });
        std::vector<std::uint64_t> pages(built.begin(), built.end());
        std::sort(pages.begin(), pages.end());
        ASSERT_EQ(seen.size(), pages.size() * pageSlots);
        std::size_t k = 0;
        for (std::uint64_t page : pages) {
            for (std::uint64_t s = 0; s < pageSlots; ++s, ++k) {
                std::uint64_t i = page * pageSlots + s;
                ASSERT_EQ(seen[k].first, i);
                ASSERT_EQ(seen[k].second, expected(i)) << "index " << i;
            }
        }
    }

    /** References taken earlier still name their slots. */
    void
    checkRefs() const
    {
        for (const auto &[i, ref] : refs) {
            ASSERT_EQ(ref, table.find(i)) << "index " << i;
            ASSERT_EQ(*ref, expected(i)) << "index " << i;
        }
    }

    Rng rng;
    std::uint64_t dense = 0;
    Table table;
    std::unordered_map<std::uint64_t, std::uint64_t> values;
    std::unordered_set<std::uint64_t> built; ///< pages at() reached
    std::vector<std::pair<std::uint64_t, std::uint64_t *>> refs;
};

} // namespace

TEST(BlockTableProperty, RandomAccessMatchesReferenceModel)
{
    Rng seeds{fuzzSeed()};
    for (unsigned round = 0; round < 20; ++round) {
        SCOPED_TRACE("round " + std::to_string(round) + " seed " +
                     std::to_string(fuzzSeed()));
        TableRun r(seeds.next());
        for (unsigned op = 0; op < 400; ++op) {
            switch (r.rng.below(10)) {
              case 0:
              case 1:
              case 2:
                {
                    std::uint64_t i = r.index();
                    std::uint64_t v = r.rng.next();
                    std::uint64_t &slot = r.at(i);
                    slot = v;
                    r.values[i] = v;
                    if (r.rng.below(4) == 0)
                        r.refs.emplace_back(i, &slot);
                    break;
                }
              case 3:
                {
                    std::uint64_t i = r.index();
                    ASSERT_EQ(r.at(i), r.expected(i)) << "index " << i;
                    break;
                }
              case 4:
                if (!r.refs.empty()) {
                    // Write through a reference taken earlier.
                    auto &[i, ref] = r.refs[r.rng.below(r.refs.size())];
                    *ref = r.rng.next();
                    r.values[i] = *ref;
                }
                break;
              case 5:
                if (r.rng.below(8) == 0)
                    r.checkForEach();
                break;
              default:
                r.checkFind(r.index());
                break;
            }
            r.checkRefs();
            if (testing::Test::HasFatalFailure())
                return;
        }
        r.checkForEach();
    }
}
