/**
 * @file
 * Paper Table 3: secondary cache miss characteristics of the
 * dsm(1)/dsm(2) programs with and without data mappings — miss
 * ratio and the private / shared-local / shared-remote breakdown
 * of misses.
 */

#include "bench/app_bench.hh"

namespace cenju
{
namespace
{

// Paper Table 3 values: miss ratio %, then private/local/remote
// breakdown % (dagger rows = no data mappings).
struct PaperRow
{
    AppKind app;
    Variant variant;
    bool mappings;
    double ratio, priv, local, remote;
};

const PaperRow paper[] = {
    {AppKind::BT, Variant::Dsm1, false, 1.49, 2.4, 1.7, 95.9},
    {AppKind::BT, Variant::Dsm1, true, 1.47, 2.2, 63.7, 34.1},
    {AppKind::BT, Variant::Dsm2, false, 0.84, 76.3, 0.6, 23.0},
    {AppKind::BT, Variant::Dsm2, true, 0.85, 76.1, 12.7, 11.2},
    {AppKind::CG, Variant::Dsm1, false, 1.48, 27.8, 0.6, 71.6},
    {AppKind::CG, Variant::Dsm1, true, 1.48, 26.7, 0.7, 72.6},
    {AppKind::CG, Variant::Dsm2, false, 1.48, 28.2, 0.6, 71.1},
    {AppKind::CG, Variant::Dsm2, true, 1.44, 25.9, 0.7, 73.4},
    {AppKind::FT, Variant::Dsm1, false, 0.84, 30.2, 0.6, 69.2},
    {AppKind::FT, Variant::Dsm1, true, 0.81, 30.8, 50.9, 18.3},
    {AppKind::FT, Variant::Dsm2, false, 0.69, 57.2, 0.4, 42.4},
    {AppKind::FT, Variant::Dsm2, true, 0.77, 59.2, 23.0, 17.9},
    {AppKind::SP, Variant::Dsm1, false, 1.77, 4.5, 1.5, 93.9},
    {AppKind::SP, Variant::Dsm1, true, 1.84, 4.3, 36.0, 59.7},
    {AppKind::SP, Variant::Dsm2, false, 1.04, 24.7, 1.9, 73.3},
    {AppKind::SP, Variant::Dsm2, true, 1.02, 24.5, 36.9, 38.6},
};

} // namespace
} // namespace cenju

int
main()
{
    using namespace cenju;
    using namespace cenju::bench;
    bench::header(
        "Table 3: secondary cache miss characteristics");
    std::printf("%-16s | %17s | %26s | %26s\n", "",
                "miss ratio (sim/ppr)", "sim P/L/R %",
                "paper P/L/R %");
    for (const PaperRow &p : paper) {
        unsigned nodes = appMaxNodes(p.app);
        NpbConfig cfg = appConfig(p.app, p.mappings);
        RunStats r = runApp(p.app, p.variant, nodes, cfg);
        double m = std::max<double>(1, r.cacheMisses);
        std::printf(
            "%-3s %-5s%-7s | %7.2f%% / %5.2f%% | %7.1f %8.1f "
            "%8.1f | %7.1f %8.1f %8.1f\n",
            nameOf(p.app), nameOf(p.variant),
            p.mappings ? "" : " (nm)", 100 * r.missRatio(),
            p.ratio, 100 * r.missPrivate / m,
            100 * r.missSharedLocal / m,
            100 * r.missSharedRemote / m, p.priv, p.local,
            p.remote);
    }
    std::printf(
        "\npaper shape: dsm(2) shifts misses from shared to "
        "private memory and lowers the miss ratio; data mappings "
        "convert remote misses into local ones for BT/FT/SP; CG's "
        "characteristics are unchanged by either knob. (nm) = no "
        "data mappings (the paper's dagger rows).\n");
    return 0;
}
