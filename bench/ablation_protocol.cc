/**
 * @file
 * Ablation A2: queuing versus nack protocol under varying
 * contention.
 *
 * A fixed pool of outstanding stores is spread over a varying
 * number of hot blocks (fewer blocks = more contention). Reports
 * completed-store throughput, total retry traffic and the worst
 * single-request retry count. The queuing protocol's advantage
 * grows as contention concentrates.
 *
 * The phase-priority protocol is included as a third column: with
 * no phase skew in this workload it must track queuing exactly
 * (same parking discipline, FIFO within a phase), which doubles as
 * a cheap sanity check that epoch ordering adds no retry traffic.
 */

#include <functional>

#include "bench/bench_util.hh"

namespace cenju
{
namespace
{

struct Result
{
    double throughputPerUs = 0;
    std::uint64_t nacks = 0;
    std::uint64_t worstRetries = 0;
};

Result
run(ProtocolKind kind, unsigned nodes, unsigned hot_blocks,
    unsigned stores_per_node)
{
    SystemConfig cfg;
    cfg.numNodes = nodes;
    cfg.proto.protocol = kind;
    DsmSystem sys(cfg);

    unsigned done = 0;
    Result res;
    std::function<void(NodeId, unsigned)> kick =
        [&](NodeId n, unsigned remaining) {
            if (remaining == 0)
                return;
            Addr a = addr_map::makeShared(
                0, (remaining * 31 + n) % hot_blocks * blockBytes);
            std::uint64_t before =
                sys.node(n).master().nackRetries.value();
            sys.node(n).master().store(
                a, n, [&, n, remaining, before] {
                    ++done;
                    res.worstRetries = std::max(
                        res.worstRetries,
                        sys.node(n).master().nackRetries.value() -
                            before);
                    kick(n, remaining - 1);
                });
        };
    for (NodeId n = 0; n < nodes; ++n)
        kick(n, stores_per_node);
    sys.eq().run();

    res.throughputPerUs =
        double(nodes) * stores_per_node / (sys.eq().now() / 1e3);
    res.nacks = sys.node(0).home().nacksSent.value();
    return res;
}

} // namespace
} // namespace cenju

int
main()
{
    using namespace cenju;
    bench::header(
        "Ablation: queuing vs nack under varying contention");
    std::printf("%12s | %14s %10s %8s | %14s %10s %8s"
                " | %14s %8s\n",
                "hot blocks", "queuing st/us", "nacks", "worst",
                "nack st/us", "nacks", "worst",
                "phase st/us", "worst");
    unsigned nodes = bench::quickMode() ? 16 : 32;
    for (unsigned blocks : {1u, 2u, 4u, 16u, 64u}) {
        Result q =
            run(ProtocolKind::Queuing, nodes, blocks, 8);
        Result k = run(ProtocolKind::Nack, nodes, blocks, 8);
        Result p =
            run(ProtocolKind::PhasePriority, nodes, blocks, 8);
        std::printf(
            "%12u | %14.3f %10llu %8llu | %14.3f %10llu %8llu"
            " | %14.3f %8llu\n",
            blocks, q.throughputPerUs,
            (unsigned long long)q.nacks,
            (unsigned long long)q.worstRetries,
            k.throughputPerUs, (unsigned long long)k.nacks,
            (unsigned long long)k.worstRetries,
            p.throughputPerUs,
            (unsigned long long)p.worstRetries);
    }
    std::printf("\nthe queuing protocol never retries; the nack "
                "protocol's wasted traffic and worst-case retries "
                "grow as contention concentrates on fewer "
                "blocks. phase-priority (uniform phase) tracks "
                "queuing exactly.\n");
    return 0;
}
