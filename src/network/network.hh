/**
 * @file
 * The multistage interconnection network: switches, per-node
 * injection queues, ejection flow control and statistics.
 *
 * Features modelled after the paper (section 2):
 *  - in-order message delivery between any two nodes (unique path +
 *    FIFO crosspoint buffers),
 *  - multicast and gathering functions,
 *  - freedom from deadlock inside the network (feed-forward stages
 *    with crosspoint buffers). Note that *ejection* can still block
 *    on a full endpoint — that back-pressure is exactly what the
 *    protocol-level deadlock-prevention buffers of section 3.4
 *    resolve.
 */

#ifndef CENJU_NETWORK_NETWORK_HH
#define CENJU_NETWORK_NETWORK_HH

#include <memory>
#include <vector>

#include "transport/net_config.hh"
#include "network/topology.hh"
#include "network/xbar_switch.hh"
#include "sim/event_queue.hh"
#include "sim/ring.hh"
#include "transport/transport.hh"

namespace cenju
{

/**
 * One omega-network instance connecting up to 1024 nodes: the
 * Transport backend that models the paper's fabric cycle-by-cycle
 * (TransportKind::Multistage). Its statistics are the NetStats
 * fields it derives; the switches count into them directly.
 */
class Network final : public Transport, public NetStats
{
  public:
    Network(EventQueue &eq, const NetConfig &cfg);
    ~Network() override;

    const char *name() const override { return "multistage"; }

    /** Attach @p ep as node @p n's interface. */
    void attach(NodeId n, Endpoint *ep) override;

    /**
     * Submit a packet for transmission from pkt->src.
     * @retval false if the node's injection queue is full; the
     * packet is left untouched in @p pkt (so callers can retry) and
     * the endpoint is notified via injectSpaceAvailable() later.
     */
    bool tryInject(PacketPtr &&pkt) override;

    /** Endpoint signals that refused deliveries can be retried. */
    void deliveryRetry(NodeId n) override;

    const Topology &topology() const { return _topo; }
    unsigned numNodes() const override { return _cfg.numNodes; }
    EventQueue &eventQueue() override { return _eq; }

    /**
     * The multistage fabric cannot be sharded: pumpInjector mutates
     * stage-0 switch state synchronously with the injecting node, and
     * ejection calls endpoints synchronously from switch arbitration,
     * so there is no latency floor between one node's action and
     * another node's state. Explicit 0 = "do not shard me"; a sharded
     * SystemConfig falls back to one shard on this backend.
     */
    Tick minCrossShardLatency() const override { return 0; }

    NetStats netStats() const override { return *this; }

    /**
     * A fault window squeezing node @p n's injection queue closed:
     * re-run the endpoint's space callback if it was refused while
     * the squeeze was active.
     */
    void faultInjectRetry(NodeId n) override;

    unsigned injectCapacity(NodeId n) const override;

    unsigned
    injectBacklog(NodeId n) const override
    {
        return static_cast<unsigned>(_injectors[n].q.size());
    }

    FabricShape
    fabricShape() const override
    {
        return {_topo.stages(), _topo.rowsPerStage()};
    }

    void
    fabricKick(unsigned stage, unsigned row) override
    {
        switchAt(stage, row).faultKick();
    }

    // --- interface used by XbarSwitch -----------------------------

    /** Final-stage reserve toward endpoint @p n. */
    bool ejectReserve(NodeId n, const Packet &pkt);

    /** Final-stage delivery of a reserved packet to endpoint @p n. */
    void ejectDeliver(NodeId n, PacketPtr pkt);

    /** Switch at (stage, row) — exposed for tests. */
    XbarSwitch &
    switchAt(unsigned stage, unsigned row)
    {
        return *_switches[stage * _topo.rowsPerStage() + row];
    }

  private:
    /** Per-node injection queue and serializer. */
    struct Injector
    {
        Ring<PacketPtr> q;
        bool busy = false;
        bool waitingSpace = false; ///< blocked on stage-0 buffer
        bool wasFull = false;      ///< owner needs a space callback
        unsigned swRow = 0;
        unsigned swPort = 0;
    };

    void pumpInjector(NodeId n);

    /**
     * Combined-reply descent (ROADMAP item 4): retrace the request
     * route home -> requester through stages [stage..0], consuming
     * combining records and spawning absorbed requesters' replies,
     * then eject. Modeled as the switch's dedicated return channel:
     * per-hop stageLatency (+ gatherMergeLatency per decombine) with
     * no crosspoint contention — the request path keeps full
     * contention and the home is charged once per *merged* packet,
     * which is where the O(log N) win lives (docs/ARCHITECTURE.md).
     */
    void descendReply(PacketPtr pkt, int stage);

    /** Final hop of a descent: reserve-or-park, then deliver. */
    void deliverCombinedReply(NodeId n, PacketPtr pkt);

    EventQueue &_eq;
    NetConfig _cfg;
    Topology _topo;
    std::vector<std::unique_ptr<XbarSwitch>> _switches;
    std::vector<Injector> _injectors;
    std::vector<Endpoint *> _endpoints;

    /** Combined replies refused at the endpoint, per node. */
    std::vector<Ring<PacketPtr>> _combineParked;

    std::uint64_t _nextPacketId = 1;
};

} // namespace cenju

#endif // CENJU_NETWORK_NETWORK_HH
