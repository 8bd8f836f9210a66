/**
 * @file
 * Paper Figure 12: speedups of the dsm(2) programs (with data
 * mappings) as the node count grows — up to 64 nodes for BT and
 * SP, 128 for CG and FT. The headline behaviour is CG's
 * saturation: its unstructured reads of the whole shared vector
 * lose reuse as nodes are added (paper section 4.2.3).
 */

#include "bench/app_bench.hh"

int
main()
{
    using namespace cenju;
    using namespace cenju::bench;
    bench::header("Figure 12: speedups of dsm(2) applications");
    for (AppKind app :
         {AppKind::BT, AppKind::CG, AppKind::FT, AppKind::SP}) {
        unsigned max_nodes = appMaxNodes(app);
        NpbConfig cfg = appConfig(app);
        Tick tseq = seqTime(app, cfg);
        std::printf("\n%s (seq %.2f ms)\n", nameOf(app),
                    tseq / 1e6);
        std::printf("%8s %12s %10s %10s\n", "nodes", "time(ms)",
                    "speedup", "eff");
        for (unsigned p = 2; p <= max_nodes; p *= 2) {
            RunStats r = runApp(app, Variant::Dsm2, p, cfg);
            std::printf("%8u %12.2f %10.2f %10.2f\n", p,
                        r.execTime / 1e6,
                        double(tseq) / r.execTime,
                        double(tseq) / r.execTime / p);
        }
    }
    std::printf(
        "\npaper shape: BT, FT and SP keep speeding up; CG "
        "saturates as remote misses take over.\n");
    return 0;
}
