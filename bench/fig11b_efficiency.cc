/**
 * @file
 * Paper Figure 11(b): parallel efficiency (speedup / nodes) of the
 * mpi, dsm(1) and dsm(2) programs, with and without shared-data
 * mappings, on the paper's node counts (BT/SP: 64, CG/FT: 128).
 */

#include "bench/app_bench.hh"

namespace cenju
{
namespace
{

// Paper Figure 11(b), read from the bar chart (approximate).
struct PaperEff
{
    AppKind app;
    double dsm1, dsm2, mpi;
};

const PaperEff paper[] = {
    {AppKind::BT, 0.20, 0.97, 0.95},
    {AppKind::CG, 0.20, 0.20, 0.55},
    {AppKind::FT, 0.40, 0.81, 0.85},
    {AppKind::SP, 0.20, 0.71, 0.80},
};

} // namespace
} // namespace cenju

int
main()
{
    using namespace cenju;
    using namespace cenju::bench;
    bench::header("Figure 11(b): parallel efficiency");
    std::printf("%6s %6s %9s %10s %10s %10s %10s\n", "app",
                "nodes", "variant", "eff", "eff(nomap)", "paper~",
                "time(ms)");
    for (const PaperEff &p : paper) {
        unsigned nodes = appMaxNodes(p.app);
        NpbConfig cfg = appConfig(p.app);
        Tick tseq = seqTime(p.app, cfg);
        for (Variant v :
             {Variant::Dsm1, Variant::Dsm2, Variant::Mpi}) {
            RunStats r = runApp(p.app, v, nodes, cfg);
            double eff =
                double(tseq) / double(r.execTime) / nodes;
            double eff_nomap = eff;
            if (v != Variant::Mpi) {
                NpbConfig nm = appConfig(p.app, false);
                RunStats rn = runApp(p.app, v, nodes, nm);
                eff_nomap =
                    double(tseq) / double(rn.execTime) / nodes;
            }
            double ppr = v == Variant::Dsm1 ? p.dsm1
                : v == Variant::Dsm2        ? p.dsm2
                                            : p.mpi;
            std::printf("%6s %6u %9s %9.2f %10.2f %9.2f %10.2f\n",
                        nameOf(p.app), nodes, nameOf(v),
                        eff, eff_nomap, ppr, r.execTime / 1e6);
        }
    }
    std::printf(
        "\npaper shape: dsm(1) far below dsm(2); dsm(2) "
        "comparable to mpi on BT and FT; CG poor in every model "
        "and untouched by tuning; removing the data mappings "
        "hurts the dsm programs. Absolute values differ on the "
        "scaled problems (see EXPERIMENTS.md).\n");
    return 0;
}
