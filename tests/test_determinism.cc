/**
 * @file
 * Determinism golden tests (docs/PERF.md).
 *
 * Every stress run hashes the order of engine steps it observes into
 * an FNV-1a digest. These digests were recorded before the kernel
 * performance overhaul; any kernel, pool, or container change that
 * alters event ordering — and therefore simulated behavior — flips a
 * digest and fails here. Full-sweep goldens (200 seeds at 16 nodes,
 * 40 at 64) live in tests/golden/ and are checked by
 * `sweeprunner stress --golden` in CI; this test pins a fast subset
 * so plain ctest catches regressions too, plus the collective paths
 * (combining, the reliability decorator) no golden file covers.
 *
 * If a change is SUPPOSED to alter simulated behavior (timing model
 * change, protocol fix), re-record: run
 *   sweeprunner stress --nodes 16 --seeds 200 --out <golden16>
 *   sweeprunner stress --nodes 64 --seeds 40  --out <golden64>
 * and update the constants below to match.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fault/stress.hh"

using namespace cenju;
using namespace cenju::fault;

namespace
{

struct Golden
{
    std::uint64_t seed;
    unsigned nodes;
    std::uint64_t digest;
    std::uint64_t steps;
};

std::uint64_t
digestFor(std::uint64_t seed, unsigned nodes,
          std::uint64_t *steps = nullptr)
{
    StressOptions opts;
    opts.nodes = nodes;
    StressCase c = makeStressCase(seed, opts);
    StressResult r = runStressCase(c);
    EXPECT_FALSE(r.failed())
        << "seed " << seed << " at " << nodes << " nodes failed";
    if (steps)
        *steps = r.steps;
    return r.digest;
}

} // namespace

TEST(Determinism, GoldenDigests16Nodes)
{
    const Golden goldens[] = {
        {1, 16, 0x89f86e6e4ff4ec00ull, 6930},
        {2, 16, 0x8e71944da0a41c09ull, 5343},
        {3, 16, 0x895a5d22ae8e5046ull, 0},
        {7341, 16, 0xb833fc126ac946e7ull, 9215},
    };
    for (const Golden &g : goldens) {
        std::uint64_t steps = 0;
        EXPECT_EQ(digestFor(g.seed, g.nodes, &steps), g.digest)
            << "seed " << g.seed
            << ": kernel change altered event ordering";
        if (g.steps)
            EXPECT_EQ(steps, g.steps) << "seed " << g.seed;
    }
}

TEST(Determinism, GoldenDigests64Nodes)
{
    const Golden goldens[] = {
        {1, 64, 0x02b73919bd40dd43ull, 31387},
        {2, 64, 0x17c74ea701cf9d89ull, 23764},
    };
    for (const Golden &g : goldens) {
        std::uint64_t steps = 0;
        EXPECT_EQ(digestFor(g.seed, g.nodes, &steps), g.digest)
            << "seed " << g.seed
            << ": kernel change altered event ordering";
        EXPECT_EQ(steps, g.steps) << "seed " << g.seed;
    }
}

/** One run of a collective path no golden file covers. */
struct CollectiveGolden
{
    bool lossy; ///< lossy producer-consumer, else hot-spot
    TransportKind transport;
    std::uint64_t seed;
    std::uint64_t digest;
    std::uint64_t steps;
};

TEST(Determinism, CollectivePathDigests)
{
    // The goldens above leave these paths unpinned: the pattern draw
    // skips hot-spot, the only pattern that combines (in the
    // switches, at ideal's home station, in direct's software
    // trees), and the lossy tier compares finals only, not the
    // decorator's multicast fan-out and gather countdown. Each row
    // pins one 16-node run of each on every backend.
    const CollectiveGolden goldens[] = {
        {false, TransportKind::Multistage, 1, 0xf23862eddd97078eull,
         3539},
        {false, TransportKind::Multistage, 2, 0x3cc254684664b5afull,
         2687},
        {false, TransportKind::Multistage, 3, 0x0532aab4b0d1b507ull,
         6520},
        {false, TransportKind::Ideal, 1, 0xdea3ab0c05186f12ull, 3273},
        {false, TransportKind::Ideal, 2, 0xe3a017e0f33ddd07ull, 2459},
        {false, TransportKind::Ideal, 3, 0xcb2da156998cfc1bull, 5886},
        {false, TransportKind::Direct, 1, 0x664d8b528294c786ull, 3463},
        {false, TransportKind::Direct, 2, 0xb4ce600af60f53fbull, 2649},
        {false, TransportKind::Direct, 3, 0xed6f34e9301316cfull, 6380},
        {true, TransportKind::Multistage, 1, 0x3e977a006800b7c5ull,
         2058},
        {true, TransportKind::Multistage, 2, 0xdcac4b11d889f405ull,
         1304},
        {true, TransportKind::Multistage, 3, 0xe94fe14aa3c82ea5ull,
         1430},
        {true, TransportKind::Ideal, 1, 0x0249357bf581e7a5ull, 2058},
        {true, TransportKind::Ideal, 2, 0x796173fb7b90fd65ull, 1304},
        {true, TransportKind::Ideal, 3, 0xac71190d4e3ca865ull, 1430},
        {true, TransportKind::Direct, 1, 0xcc60295d7f121145ull, 2058},
        {true, TransportKind::Direct, 2, 0xfd6059957a32e945ull, 1304},
        {true, TransportKind::Direct, 3, 0x0c1369affa21d1c5ull, 1430},
    };
    for (const CollectiveGolden &g : goldens) {
        StressOptions opts;
        opts.nodes = 16;
        opts.transport = g.transport;
        opts.lossy = g.lossy;
        opts.patternFixed = true;
        // The lossy tier pins producer-consumer (tools/stress).
        opts.pattern = g.lossy ? StressPattern::ProducerConsumer
                               : StressPattern::HotSpot;
        StressResult r = runStressCase(makeStressCase(g.seed, opts));
        std::string run = std::string(g.lossy ? "lossy" : "hot-spot") +
                          " seed " + std::to_string(g.seed) + " on " +
                          nameOf(g.transport);
        EXPECT_FALSE(r.failed()) << run;
        EXPECT_EQ(r.digest, g.digest) << run;
        EXPECT_EQ(r.steps, g.steps) << run;
    }
}

TEST(Determinism, BackToBackRunsAreBitIdentical)
{
    std::uint64_t a = digestFor(11, 16);
    std::uint64_t b = digestFor(11, 16);
    EXPECT_EQ(a, b);
}
