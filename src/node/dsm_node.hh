/**
 * @file
 * One Cenju-4 node: R10000-class processor port (the master
 * module), 1 MB secondary cache, main memory split into private and
 * shared segments, and the controller chip's master/home/slave
 * protocol engines with the section 3.4 buffering arrangement.
 *
 * The node is also the network endpoint: incoming packets are
 * dispatched to the module their type addresses, with per-class
 * acceptance rules that realize the deadlock-prevention scheme —
 * grants are always absorbed (bounded by MSHRs), slave-bound
 * requests overflow into main memory, and the home's output is
 * buffered in main memory so the home never blocks the network.
 */

#ifndef CENJU_NODE_DSM_NODE_HH
#define CENJU_NODE_DSM_NODE_HH

#include <memory>

#include "check/hooks.hh"
#include "memory/address_map.hh"
#include "shard/context.hh"
#include "memory/main_memory.hh"
#include "memory/msg_queue.hh"
#include "policy/policy.hh"
#include "transport/transport.hh"
#include "protocol/cache.hh"
#include "protocol/home.hh"
#include "protocol/master.hh"
#include "protocol/proto_config.hh"
#include "protocol/slave.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"

namespace cenju
{

/** A complete node attached to the transport. */
class DsmNode : public Endpoint
{
  public:
    DsmNode(EventQueue &eq, Transport &net, NodeId id,
            const ProtocolConfig &cfg);

    DsmNode(const DsmNode &) = delete;
    DsmNode &operator=(const DsmNode &) = delete;

    NodeId id() const { return _id; }
    unsigned numNodes() const { return _net.numNodes(); }

    /**
     * Declare which shard owns this node in a sharded run
     * (DsmSystem does this at construction). Entry points then
     * assert they execute on that shard's worker, so a transport
     * bug that reaches across shards mid-window fails loudly
     * instead of racing silently. Unsharded nodes assert nothing.
     */
    void bindShard(unsigned s) { _shard = s; }
    unsigned shard() const { return _shard; }
    EventQueue &eq() { return _eq; }
    Transport &transport() { return _net; }
    const ProtocolConfig &cfg() const { return _cfg; }
    const TimingParams &timing() const { return _cfg.timing; }

    Cache &cache() { return _cache; }
    MainMemory &sharedMem() { return _sharedMem; }
    MainMemory &privateMem() { return _privateMem; }

    MasterModule &master() { return _master; }
    HomeModule &home() { return _home; }
    SlaveModule &slave() { return _slave; }

    /** This node's coherence-policy backend (src/policy/). */
    CoherencePolicy &policy() { return *_policy; }

    // --- module output paths --------------------------------------

    /** Queue a master-originated message (request / writeback). */
    void sendFromMaster(std::unique_ptr<CohPacket> pkt);

    /**
     * Queue a slave reply. The slave's output register holds one
     * message; @retval false means it is occupied and the slave
     * must stall until outputSpaceAvailable().
     */
    bool trySendFromSlave(std::unique_ptr<CohPacket> &pkt);

    /**
     * Queue a home-originated message. With deadlock avoidance the
     * overflow goes to main memory and this never fails; without
     * it, @retval false tells the home to stall.
     */
    bool trySendFromHome(std::unique_ptr<CohPacket> &pkt);

    /** Entries waiting in the home output memory queue. */
    std::size_t homeOutBacklog() const
    {
        return _homeOutHw.size() + _homeOutMem.size();
    }

    std::size_t homeOutMemHighWater() const
    {
        return _homeOutMem.highWater();
    }

    // --- Endpoint -------------------------------------------------

    bool reserveDelivery(const Packet &pkt) override;
    void deliver(PacketPtr pkt) override;
    void injectSpaceAvailable() override;

    /** A module freed input-buffer space (ablation back-pressure:
     * lets the transport retry refused deliveries). */
    void inputSpaceFreed();

    /** Total protocol messages this node has emitted. */
    std::uint64_t sentCount() const { return _sent.value(); }

    /** Zero the master, home and slave statistics and sentCount(). */
    void
    resetStats()
    {
        static_cast<MasterStats &>(_master) = {};
        static_cast<HomeStats &>(_home) = {};
        static_cast<SlaveStats &>(_slave) = {};
        _sent = {};
    }

    /**
     * Handler for non-coherence packets delivered to this node
     * (user-level message passing shares the network, paper
     * section 2). Such packets are always accepted.
     */
    void
    setUserHandler(InlineFunction<void(PacketPtr)> handler)
    {
        _userHandler = std::move(handler);
    }

    /** Inject a user-level packet (also used for local loopback). */
    void sendUser(PacketPtr pkt);

    // --- checking subsystem (src/check, docs/CHECKING.md) ---------

    /** Invariant hook observing this node's engines (may be null). */
    check::CheckHook *checkHook() const { return _checkHook; }
    void setCheckHook(check::CheckHook *hook) { _checkHook = hook; }

    // --- fault injection (src/fault, docs/TESTING.md) -------------

    /**
     * Hold the output pump: queued messages stay parked (order
     * preserved) until every overlapping hold window releases.
     */
    void faultHoldOutput() { ++_outputHolds; }

    void
    faultReleaseOutput()
    {
        if (_outputHolds == 0)
            panic("node %u: unbalanced output hold release", _id);
        if (--_outputHolds == 0)
            pumpOutput();
    }

  private:
    /** Dispatch a protocol message to the right module. */
    void dispatch(std::unique_ptr<CohPacket> pkt);

    void pumpOutput();

    EventQueue &_eq;
    Transport &_net;
    NodeId _id;
    unsigned _shard = shard::kNoShard; ///< owner in sharded runs
    ProtocolConfig _cfg;

    Cache _cache;
    MainMemory _privateMem;
    MainMemory _sharedMem;

    /** Coherence flavour; constructed before the engines that call
     * into it. */
    std::unique_ptr<CoherencePolicy> _policy;

    MasterModule _master;
    HomeModule _home;
    SlaveModule _slave;

    // Output side: three source queues round-robin-pumped into the
    // transport's injection queue.
    // Held as PacketPtr so handing off to Transport::tryInject never
    // goes through a destroying temporary conversion.
    Ring<PacketPtr> _masterOut;
    PacketPtr _slaveOut; ///< single register
    Ring<PacketPtr> _homeOutHw;
    MsgQueue<PacketPtr> _homeOutMem;
    unsigned _outRR = 0;

    // Input-side reservation accounting (ablation mode).
    unsigned _slaveReserved = 0;
    unsigned _homeReserved = 0;

    InlineFunction<void(PacketPtr)> _userHandler;
    Ring<PacketPtr> _userOut;

    check::CheckHook *_checkHook = nullptr;

    unsigned _outputHolds = 0; ///< active fault hold windows

    Counter _sent;
};

} // namespace cenju

#endif // CENJU_NODE_DSM_NODE_HH
