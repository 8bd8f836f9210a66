/**
 * @file
 * Analytical (non-switched) Transport backends.
 *
 * Both backends here model an interconnect as a fixed-latency pipe
 * per message — injection queue, serializing source port, a single
 * end-to-end latency equal to the multistage fabric's *uncontended*
 * path (traversal(), net_config.hh), and a delivery queue per
 * destination — without modelling any internal switch contention:
 *
 *  - IdealTransport keeps the fabric's hardware multicast and
 *    gathering semantics (one injection covers the whole NodeSet,
 *    sibling replies merge before delivery) but removes all
 *    contention. It bounds every figure from below: whatever it
 *    reports is the protocol-limited latency.
 *
 *  - DirectTransport is the paper's "without multicast/gathering"
 *    baseline (Figure 10's upper curve): a multicast expands into a
 *    sender-side loop of point-to-point packets, each paying its own
 *    port occupancy, and gather replies arrive as N individual
 *    messages that the destination counts in software — the receive
 *    port serializes them, charging per-reply processing time.
 *
 * Both still honor the full Transport contract (back-pressure,
 * check/fault hooks, per-source-destination ordering), so stress,
 * modelcheck and the invariant engine run unchanged on top of them.
 * Their collective steps are the shared ones of
 * transport/collectives.hh; only where a step runs and what it
 * costs is theirs.
 */

#ifndef CENJU_TRANSPORT_SOFTWARE_HH
#define CENJU_TRANSPORT_SOFTWARE_HH

#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/hashing.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"
#include "transport/collectives.hh"
#include "transport/net_config.hh"
#include "transport/transport.hh"

namespace cenju
{

/** Shared machinery of the analytical backends. */
class SoftwareTransport : public Transport
{
  public:
    unsigned numNodes() const override { return _cfg.numNodes; }
    EventQueue &eventQueue() override { return _eq; }

    /** Sums the per-node counts (kept per node for sharding). */
    NetStats netStats() const override;

    void attach(NodeId n, Endpoint *ep) override;
    bool tryInject(PacketPtr &&pkt) override;
    void deliveryRetry(NodeId n) override;
    void faultInjectRetry(NodeId n) override;

    /**
     * One message takes at least the uncontended pipe to become
     * visible at another node, so the pipe latency is a valid
     * conservative sharding lookahead.
     */
    Tick minCrossShardLatency() const override
    {
        return _pipeLatency;
    }

    bool bindShards(shard::Router *router) override;

    unsigned injectCapacity(NodeId n) const override;

    unsigned
    injectBacklog(NodeId n) const override
    {
        const Injector &inj = _injectors[n];
        return static_cast<unsigned>(inj.q.size() +
                                     inj.fanout.size());
    }

  protected:
    /**
     * @param software_collectives do without the fabric's collective
     *        hardware (DirectTransport): expand multicasts into
     *        serial unicasts, charge per-packet software processing
     *        time at the destination port (reply counting in
     *        software) and combine atomics in sender-side software
     *        trees. Otherwise (IdealTransport) one injection delivers
     *        the whole set, arrivals land back to back and the home
     *        combines in hardware.
     */
    SoftwareTransport(EventQueue &eq, const NetConfig &cfg,
                      bool software_collectives);

  private:
    /**
     * Ideal's hardware combining station at the home's interface:
     * while one request per key is outstanding at the endpoint, the
     * next becomes pending and later arrivals fold into it, so a
     * hot-spot storm completes in two home visits regardless of N.
     * Presence of a station means a request is outstanding.
     */
    struct HwStation
    {
        /** Ticket of the request currently at the home. A reply
         * for any other ticket (a mixed-op request delivered
         * serially past the station) must not release pending. */
        std::uint64_t outstandingTicket = 0;
        PacketPtr pending;
        MergeLog log;
    };

    /**
     * Direct's per-node software combiner: same-key requests from
     * this node's tree subtree buffered for swCombineWindow, then
     * forwarded as one merged packet toward the tree parent. All
     * state is per-node so sharding ownership holds.
     */
    struct SwCombiner
    {
        /** An aggregate being built, and the node its rep came
         * from. */
        struct Pending
        {
            PacketPtr agg;
            NodeId from = invalidNode;
        };

        /** combineKey -> aggregate being built. */
        std::unordered_map<std::uint64_t, Pending, U64MixHash>
            pending;
        /** Merges performed here, taken on the reply descent. */
        MergeLog log;
        /** Forwarded ticket -> where its reply should continue. */
        std::unordered_map<std::uint64_t, NodeId, U64MixHash>
            fwdFrom;
    };

    /**
     * Per-source injection queue and serializing port. All mutable
     * transmit-side state — including statistics and the packet-id
     * sequence — lives here (not in transport-wide members) so that
     * under sharding every field is only ever touched from the
     * source node's owning shard.
     */
    struct Injector
    {
        Ring<PacketPtr> q;
        /** Unicast expansion of the multicast in flight (direct). */
        Ring<PacketPtr> fanout;
        bool busy = false;
        bool wasFull = false; ///< owner needs a space callback
        std::uint64_t injected = 0;
        std::uint64_t multicastCopies = 0;
        std::uint64_t nextPacketId = 1;
    };

    /**
     * Per-destination delivery queue and (optional) serializer.
     * Receive-side statistics, gather merges and the counts of the
     * combining done at this node (ideal's station, direct's tree
     * node) live here for the same shard-ownership reason as
     * Injector's.
     */
    struct DeliveryPort
    {
        Ring<PacketPtr> q;
        bool busy = false;    ///< serialized processing in progress
        bool pumping = false; ///< re-entrancy guard
        std::uint64_t delivered = 0;
        std::uint64_t combineMerged = 0;
        std::uint64_t combineDecombined = 0;
        SampleStat latency;
        GatherCountdown gathers;
        /** Ideal: combining stations, keyed by combineKey. */
        std::unordered_map<std::uint64_t, HwStation, U64MixHash>
            stations;
    };

    void pumpInjector(NodeId n);
    void sendOne(Injector &inj, NodeId n, PacketPtr pkt);
    void arrive(NodeId dst, PacketPtr pkt);
    void pumpDelivery(NodeId dst);

    /**
     * The one arrival path, sequential or sharded: schedule @p pkt
     * to arrive at @p dst at @p when, on @p src's queue, or through
     * the router if @p dst lives on another shard.
     */
    void routeArrival(NodeId src, NodeId dst, Tick when,
                      PacketPtr pkt);

    // --- combinable atomics (ROADMAP item 4) ----------------------

    /** Ideal: reply leaves the home via the hardware primitive. */
    void hwCombineReply(NodeId home, PacketPtr pkt);

    /**
     * Ideal: combinable request reaching the home's station.
     * @retval true if consumed (merged or parked); false means the
     * caller should deliver it (a station now tracks it).
     */
    bool hwCombineArrive(NodeId dst, PacketPtr &pkt);

    /** Direct: tree parent of @p x for requests homed at @p home. */
    NodeId swParent(NodeId x, NodeId home) const;

    /** Direct: request enters node @p x's software combiner. */
    void swCombineAccept(NodeId x, PacketPtr pkt);

    /** Direct: flush window expired; forward the aggregate. */
    void swCombineFlush(NodeId x, std::uint64_t key);

    /** Direct: reply descending the software tree reaches @p x. */
    void swReplyArrive(NodeId x, PacketPtr pkt);

    /** Direct: send @p pkt through @p x's injector (tree hop). */
    void swForward(NodeId x, PacketPtr pkt);

    /** Deliver at @p x's port (normal reserve/serialize path). */
    void deliverLocal(NodeId x, PacketPtr pkt);

    /** Clock node @p n's events run on (shard-aware). */
    EventQueue &queueOf(NodeId n);
    Tick nowOf(NodeId n);

    EventQueue &_eq;
    NetConfig _cfg;
    const bool _softwareCollectives;
    /** Uncontended end-to-end latency of one message. */
    const Tick _pipeLatency;
    shard::Router *_router = nullptr;

    std::vector<Injector> _injectors;
    std::vector<DeliveryPort> _ports;
    std::vector<Endpoint *> _endpoints;

    /** Direct: per-node software combiners (empty on ideal). */
    std::vector<SwCombiner> _combiners;
};

/**
 * Zero-contention fabric with hardware multicast/gathering
 * (TransportKind::Ideal): the protocol-limit lower bound.
 */
class IdealTransport final : public SoftwareTransport
{
  public:
    IdealTransport(EventQueue &eq, const NetConfig &cfg)
        : SoftwareTransport(eq, cfg, /*software_collectives=*/false)
    {}

    const char *name() const override { return "ideal"; }
};

/**
 * Point-to-point-only interconnect (TransportKind::Direct): the
 * paper's "without multicast/gathering" baseline. Multicasts become
 * sender-side unicast loops; gather replies are counted in software
 * at a serializing receive port.
 */
class DirectTransport final : public SoftwareTransport
{
  public:
    DirectTransport(EventQueue &eq, const NetConfig &cfg)
        : SoftwareTransport(eq, cfg, /*software_collectives=*/true)
    {}

    const char *name() const override { return "direct"; }
};

} // namespace cenju

#endif // CENJU_TRANSPORT_SOFTWARE_HH
