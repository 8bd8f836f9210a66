/**
 * @file
 * Home module: the directory side of the coherence protocol
 * (paper section 3.3 and appendix).
 *
 * Implements the full appendix state machine over {C,D,Ps,Pe,Pi}
 * memory states, the starvation-free *queuing* protocol (requests
 * that hit a pending block are parked in a main-memory FIFO, gated
 * by the per-entry reservation bit), its *phase-priority* variant
 * (parked in phase-epoch order) and, for comparison, the DASH-style
 * *nack* protocol. Invalidations use the network's multicast and
 * gathering functions when more than one slave is targeted; a
 * serial-unicast mode reproduces the paper's no-multicast estimate.
 */

#ifndef CENJU_PROTOCOL_HOME_HH
#define CENJU_PROTOCOL_HOME_HH

#include <memory>
#include <unordered_map>

#include "directory/directory.hh"
#include "memory/msg_queue.hh"
#include "protocol/coh_msg.hh"
#include "sim/hashing.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cenju
{

class DsmNode;

/** A request parked in the home's main-memory queue. */
struct QueuedReq
{
    CohMsgType type;
    Addr addr;
    NodeId master;
    std::uint8_t mshr;
    std::uint32_t epoch; ///< phase epoch at issue (phase-priority)
};

/** Home-side statistics, reset by DsmNode. */
struct HomeStats
{
    Counter requestsProcessed;
    Counter requestsQueued;
    Counter nacksSent;
    Counter invalidationMulticasts;
    Counter invalidationUnicasts;
    Counter writebacksProcessed;
    Counter gatherWaits;
    Counter atomicsProcessed;
    SampleStat queueWaitDepth;
};

/** Directory-side protocol engine of one node. */
class HomeModule : public HomeStats
{
  public:
    explicit HomeModule(DsmNode &node);

    /** A home-bound message arrived (request or slave reply). */
    void enqueueInput(std::unique_ptr<CohPacket> pkt);

    /** The node's output path has room again: resend what it
     * refused (ablation mode), then resume dispatch. */
    void outputSpaceAvailable();

    /** Messages waiting in the input buffer (for stats/tests). */
    std::size_t inputBacklog() const { return _input.size(); }

    Directory &directory() { return _dir; }
    const Directory &directory() const { return _dir; }
    const MsgQueue<QueuedReq> &requestQueue() const
    {
        return _reqQueue;
    }

    /** Pending directory operations in flight. */
    std::size_t pendingOps() const { return _pending.size(); }

    /** True if a directory operation for @p addr is in flight. */
    bool hasPendingOp(Addr addr) const
    {
        return _pending.find(addr) != _pending.end();
    }

    /** Invalidation rounds parked behind the busy gather unit. */
    std::size_t gatherBacklog() const { return _gatherWait.size(); }

    // --- fault injection (src/fault, docs/TESTING.md) -------------

    /**
     * Hold the dispatch pipeline: arriving messages accumulate in
     * the input buffer until every hold window releases (a burst of
     * home-queue growth).
     */
    void faultHoldDispatch() { ++_dispatchHolds; }
    void faultReleaseDispatch();

    /**
     * Hold the gather unit: new multicast invalidation rounds park
     * in the gather-wait queue as if the unit were busy, modelling
     * gather-table slot pressure.
     */
    void faultHoldGather() { ++_gatherHolds; }
    void faultReleaseGather();

  private:
    struct PendingOp
    {
        enum class Wait
        {
            SlaveReply, ///< forwarded to the owner
            GatherAck,  ///< multicast invalidations, gathered ack
            SerialAcks, ///< unicast invalidations, counted acks
        };

        CohMsgType reqType; ///< ReadShared / ReadExclusive /
                            ///< Ownership
        NodeId master;
        std::uint8_t mshr;
        Wait wait = Wait::SlaveReply;
        unsigned acksLeft = 0;
        bool usesGatherUnit = false;
    };

    /** Invalidation round parked while the gather unit is busy. */
    struct WaitingMulticast
    {
        Addr addr;
    };

    void processNext();

    /** Dispatch one message; returns the busy time consumed. */
    Tick dispatch(CohPacket &pkt);

    Tick handleRequest(const CohPacket &pkt, Tick t);
    Tick handleRequestAs(CohMsgType type, Addr addr, NodeId master,
                         std::uint8_t mshr, Tick t);
    Tick handleWriteBack(const CohPacket &pkt, Tick t);
    Tick handleSlaveReply(const CohPacket &pkt, Tick t);
    Tick handleInvAck(const CohPacket &pkt, Tick t);

    /**
     * Combinable typed atomic on a non-coherent synchronization
     * word (ROADMAP item 4): read-modify-write the memory word and
     * reply with the old value, bypassing the directory entirely —
     * combinable words are declared via shmAllocCombinable() and
     * are never cached, so there is nothing to invalidate.
     */
    Tick handleAtomic(const CohPacket &pkt, Tick t);

    /**
     * A request hit a pending block: nack it, or park it in the
     * memory queue (at the tail under queuing, in epoch order under
     * phase-priority) with the reservation bit on the head's block.
     */
    Tick park(const QueuedReq &req, Tick t);

    /**
     * Reservation check after a reply (section 3.3): when the
     * completing block's entry carried the reservation bit, serve
     * parked requests head-first.
     */
    Tick afterReply(Addr addr, Tick t);

    /**
     * Launch the invalidation round for @p addr at busy-offset
     * @p t. Destinations mirror the directory structure; replies
     * are gathered when the multicast path is used.
     */
    Tick startInvalidation(Addr addr, Tick t);

    /** Emit @p pkt at busy-offset @p t from now. */
    void emitAt(Tick t, std::unique_ptr<CohPacket> pkt);

    DirectoryEntry &entryFor(Addr addr);

    DsmNode &_node;
    Directory _dir;
    MsgQueue<QueuedReq> _reqQueue;
    std::unordered_map<Addr, PendingOp, U64MixHash> _pending;
    Ring<std::unique_ptr<CohPacket>> _input;
    Ring<WaitingMulticast> _gatherWait;
    /** Packets the node's bounded output refused (ablation mode),
     * in emit order; dispatch stalls while any wait. */
    Ring<std::unique_ptr<CohPacket>> _refused;
    bool _busy = false;
    bool _gatherBusy = false;
    unsigned _dispatchHolds = 0; ///< active fault hold windows
    unsigned _gatherHolds = 0;   ///< active gather-pressure windows
};

} // namespace cenju

#endif // CENJU_PROTOCOL_HOME_HH
