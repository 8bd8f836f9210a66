/**
 * @file
 * Workload tests: every (app, variant) kernel runs to completion,
 * parallel variants compute the same answer as the sequential
 * program (exactly where the decomposition preserves the update
 * order, approximately where boundary coupling is relaxed), and
 * the textdiff library behaves.
 */

#include <gtest/gtest.h>

#include "workload/npb.hh"
#include "workload/textdiff.hh"

namespace cenju
{
namespace
{

NpbConfig
tinyCfg()
{
    NpbConfig cfg;
    cfg.grid = 8;
    cfg.cgRows = 256;
    cfg.cgNnzPerRow = 4;
    cfg.iterations = 2;
    return cfg;
}

double
runChecksum(AppKind app, Variant v, unsigned nodes,
            const NpbConfig &cfg, RunStats *stats = nullptr)
{
    SystemConfig sc;
    sc.numNodes = nodes;
    DsmSystem sys(sc);
    auto prog = makeNpbApp(app, v, cfg);
    RunStats r = runNpb(sys, *prog);
    EXPECT_GT(r.execTime, 0u);
    EXPECT_GT(r.memAccesses, 0u);
    if (stats)
        *stats = r;
    return prog->checksum();
}

class AllKernels
    : public ::testing::TestWithParam<std::tuple<AppKind, Variant>>
{};

TEST_P(AllKernels, RunsToCompletion)
{
    auto [app, v] = GetParam();
    unsigned nodes = v == Variant::Seq ? 1 : 4;
    double sum = runChecksum(app, v, nodes, tinyCfg());
    EXPECT_TRUE(std::isfinite(sum));
    EXPECT_NE(sum, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllKernels,
    ::testing::Combine(::testing::Values(AppKind::BT, AppKind::CG,
                                         AppKind::FT, AppKind::SP),
                       ::testing::Values(Variant::Seq, Variant::Mpi,
                                         Variant::Dsm1,
                                         Variant::Dsm2)));

TEST(Workload, Dsm1MatchesSeqExactly)
{
    // dsm(1) only repartitions loops; every line recurrence is
    // preserved, so the checksum is bit-identical.
    NpbConfig cfg = tinyCfg();
    for (AppKind app : {AppKind::BT, AppKind::SP, AppKind::CG,
                        AppKind::FT}) {
        double seq = runChecksum(app, Variant::Seq, 1, cfg);
        double dsm1 = runChecksum(app, Variant::Dsm1, 4, cfg);
        EXPECT_DOUBLE_EQ(seq, dsm1) << nameOf(app);
    }
}

TEST(Workload, Dsm2AndMpiAgreeWithEachOther)
{
    // Both use the same relaxed z-boundary coupling, so they
    // compute identical results; BT/SP differ slightly from seq.
    NpbConfig cfg = tinyCfg();
    for (AppKind app : {AppKind::BT, AppKind::SP, AppKind::FT,
                        AppKind::CG}) {
        double d2 = runChecksum(app, Variant::Dsm2, 4, cfg);
        double mpi = runChecksum(app, Variant::Mpi, 4, cfg);
        EXPECT_NEAR(d2, mpi, 1e-9 * std::abs(d2))
            << nameOf(app);
    }
}

TEST(Workload, FtAndCgParallelMatchSeqExactly)
{
    // FT's transpose and CG's gathers have no cross-node update
    // order dependence: all variants agree exactly.
    NpbConfig cfg = tinyCfg();
    for (AppKind app : {AppKind::FT, AppKind::CG}) {
        double seq = runChecksum(app, Variant::Seq, 1, cfg);
        double d2 = runChecksum(app, Variant::Dsm2, 4, cfg);
        double mpi = runChecksum(app, Variant::Mpi, 4, cfg);
        EXPECT_DOUBLE_EQ(seq, d2) << nameOf(app);
        EXPECT_DOUBLE_EQ(seq, mpi) << nameOf(app);
    }
}

TEST(Workload, SpIsBtWithLighterPointWork)
{
    // SP runs BT's program with spPointWork (makeNpbApp): the same
    // answer and accesses, a third of BT's compute (40 vs 120).
    NpbConfig cfg = tinyCfg();
    for (Variant v : {Variant::Seq, Variant::Mpi, Variant::Dsm1,
                      Variant::Dsm2}) {
        unsigned nodes = v == Variant::Seq ? 1 : 4;
        RunStats bt, sp;
        double bt_sum = runChecksum(AppKind::BT, v, nodes, cfg, &bt);
        double sp_sum = runChecksum(AppKind::SP, v, nodes, cfg, &sp);
        EXPECT_EQ(sp_sum, bt_sum) << nameOf(v);
        EXPECT_EQ(sp.memAccesses, bt.memAccesses) << nameOf(v);
        EXPECT_GT(sp.computeTime, 0u) << nameOf(v);
        EXPECT_EQ(bt.computeTime, 3 * sp.computeTime) << nameOf(v);
    }
}

TEST(Workload, MappingsLocalizeSharedAccesses)
{
    // The paper's data mappings localize memory accesses (Table 3):
    // with a mapping, the x/y sweeps touch the locally homed slab.
    NpbConfig with = tinyCfg();
    with.dataMappings = true;
    NpbConfig without = tinyCfg();
    without.dataMappings = false;

    auto breakdown = [](const NpbConfig &cfg) {
        SystemConfig sc;
        sc.numNodes = 4;
        sc.proto.cacheBytes = 8 * blockBytes; // force misses
        DsmSystem sys(sc);
        auto prog = makeNpbApp(AppKind::BT, Variant::Dsm1, cfg);
        return runNpb(sys, *prog);
    };
    RunStats rw = breakdown(with);
    RunStats rwo = breakdown(without);
    double local_frac_with =
        double(rw.accSharedLocal) /
        double(rw.accSharedLocal + rw.accSharedRemote);
    double local_frac_without =
        double(rwo.accSharedLocal) /
        double(rwo.accSharedLocal + rwo.accSharedRemote);
    EXPECT_GT(local_frac_with, local_frac_without + 0.2);
}

TEST(Workload, Dsm2ShiftsMissesToPrivate)
{
    NpbConfig cfg = tinyCfg();
    auto privateFrac = [&cfg](Variant v) {
        SystemConfig sc;
        sc.numNodes = 4;
        sc.proto.cacheBytes = 8 * blockBytes;
        DsmSystem sys(sc);
        auto prog = makeNpbApp(AppKind::BT, v, cfg);
        RunStats r = runNpb(sys, *prog);
        return double(r.missPrivate) /
               double(std::max<std::uint64_t>(1, r.cacheMisses));
    };
    EXPECT_GT(privateFrac(Variant::Dsm2),
              privateFrac(Variant::Dsm1));
}

// --- textdiff ---------------------------------------------------------

TEST(TextDiff, NormalizeStripsCommentsAndBlanks)
{
    std::string src = "int a; // trailing\n"
                      "\n"
                      "/* block\n"
                      " * comment */ int b;\n"
                      "   indented();   \n";
    auto lines = normalizeSource(src);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], "int a;");
    EXPECT_EQ(lines[1], "int b;");
    EXPECT_EQ(lines[2], "indented();");
}

TEST(TextDiff, IdenticalFilesHaveZeroRatio)
{
    std::vector<std::string> a{"x", "y", "z"};
    DiffStats d = diffLines(a, a);
    EXPECT_EQ(d.common, 3u);
    EXPECT_EQ(d.added, 0u);
    EXPECT_EQ(d.removed, 0u);
    EXPECT_DOUBLE_EQ(d.rewritingRatio(), 0.0);
}

TEST(TextDiff, AddedAndChangedLinesCounted)
{
    std::vector<std::string> base{"a", "b", "c", "d"};
    std::vector<std::string> var{"a", "B", "c", "d", "e"};
    DiffStats d = diffLines(base, var);
    EXPECT_EQ(d.common, 3u);  // a c d
    EXPECT_EQ(d.added, 2u);   // B e
    EXPECT_EQ(d.removed, 1u); // b
    EXPECT_DOUBLE_EQ(d.rewritingRatio(), 0.5);
}

TEST(TextDiff, KernelSourcesExistAndDiffSensibly)
{
    for (AppKind app : {AppKind::BT, AppKind::CG, AppKind::FT,
                        AppKind::SP}) {
        std::string seq = npbSourcePath(app, Variant::Seq);
        DiffStats d1 =
            diffFiles(seq, npbSourcePath(app, Variant::Dsm1));
        DiffStats dm =
            diffFiles(seq, npbSourcePath(app, Variant::Mpi));
        EXPECT_GT(d1.baseLines, 20u);
        EXPECT_GT(d1.rewritingRatio(), 0.0) << nameOf(app);
        // The headline Figure 11(a) ordering: dsm(1) rewrites less
        // than mpi.
        EXPECT_LT(d1.rewritingRatio(), dm.rewritingRatio())
            << nameOf(app);
    }
}

} // namespace
} // namespace cenju
