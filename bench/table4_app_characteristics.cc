/**
 * @file
 * Paper Table 4: characteristics of the dsm(2) applications at 16
 * versus 64 (BT, SP) or 128 (CG, FT) nodes: execution time,
 * synchronization fraction, executed instructions, the memory
 * access breakdown, the miss ratio and the miss breakdown.
 *
 * (The paper's "system" column — OS time — has no analog in the
 * simulator and is reported as a dash.)
 */

#include "bench/app_bench.hh"

namespace cenju
{
namespace
{

void
row(AppKind app, unsigned nodes)
{
    using namespace bench;
    NpbConfig cfg = appConfig(app);
    RunStats r = runApp(app, Variant::Dsm2, nodes, cfg);
    double acc = std::max<double>(1, r.accPrivate +
                                         r.accSharedLocal +
                                         r.accSharedRemote);
    double mis = std::max<double>(1, r.cacheMisses);
    std::printf(
        "%-3s %5u %10.3f %6s %7.2f%% | %8.1fM %8.1fM | %5.1f "
        "%5.1f %5.1f | %5.2f%% | %5.1f %5.1f %5.1f\n",
        nameOf(app), nodes, r.execTime / 1e6, "-",
        100 * r.syncFraction(nodes),
        r.instructions / 1e6 / nodes,
        r.memAccesses / 1e6 / nodes, 100 * r.accPrivate / acc,
        100 * r.accSharedLocal / acc,
        100 * r.accSharedRemote / acc, 100 * r.missRatio(),
        100 * r.missPrivate / mis, 100 * r.missSharedLocal / mis,
        100 * r.missSharedRemote / mis);
}

} // namespace
} // namespace cenju

int
main()
{
    using namespace cenju;
    using namespace cenju::bench;
    bench::header("Table 4: characteristics of applications "
                  "(dsm(2) with data mappings)");
    std::printf("%-3s %5s %10s %6s %8s | %9s %9s | %17s | %6s | "
                "%17s\n",
                "app", "nodes", "time(ms)", "sys", "sync",
                "instr/nd", "macc/nd", "acc P/L/R %", "missr",
                "miss P/L/R %");
    for (AppKind app :
         {AppKind::BT, AppKind::CG, AppKind::FT, AppKind::SP}) {
        row(app, 16);
        row(app, appMaxNodes(app));
    }
    std::printf(
        "\npaper shape: instruction and access counts scale down "
        "with nodes (the programs themselves scale); the access "
        "breakdown barely moves, but the *miss* breakdown shifts "
        "sharply toward remote — most extremely for CG, whose "
        "remote-miss share explodes and stalls its speedup; the "
        "synchronization fraction grows with the node count.\n");
    return 0;
}
