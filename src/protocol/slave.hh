/**
 * @file
 * Slave module: services forwarded requests and invalidations
 * against the node's cache (paper section 3.3/3.4).
 *
 * Input messages land in a small hardware buffer that overflows
 * into a main-memory queue sized nodes x outstanding (64 KB at 1024
 * nodes) — the section 3.4 arrangement that lets the slave always
 * drain the network. Replies go to the home (never directly to the
 * master); invalidation replies are gathered in the network.
 */

#ifndef CENJU_PROTOCOL_SLAVE_HH
#define CENJU_PROTOCOL_SLAVE_HH

#include <memory>

#include "memory/msg_queue.hh"
#include "protocol/coh_msg.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cenju
{

class DsmNode;

/** Slave-side statistics, reset by DsmNode. */
struct SlaveStats
{
    Counter invalidationsReceived;
    Counter forwardsReceived;
    Counter updatesReceived;
    Counter memOverflowed;
};

/** Cache-side protocol engine of one node. */
class SlaveModule : public SlaveStats
{
  public:
    explicit SlaveModule(DsmNode &node);

    /**
     * Accept a slave-bound message. With deadlock avoidance on this
     * never fails (memory overflow); the node checks hwSpace()
     * first in the ablation configuration.
     */
    void enqueue(std::unique_ptr<CohPacket> pkt);

    /** Room left in the hardware input buffer? */
    bool hwSpace() const;

    /** The node's output path has room again. */
    void outputSpaceAvailable();

    /** Total buffered messages (hw + memory). */
    std::size_t backlog() const { return _hw.size() + _mem.size(); }

    /** High-water mark of the memory overflow queue. */
    std::size_t memHighWater() const { return _mem.highWater(); }

    /** True if a reply is stalled on the node's output register. */
    bool replyStalled() const { return _stalledReply != nullptr; }

  private:
    void processNext();
    void serve(std::unique_ptr<CohPacket> pkt, Tick extra);
    void emitReply(std::unique_ptr<CohPacket> pkt);

    DsmNode &_node;
    Ring<std::unique_ptr<CohPacket>> _hw;
    MsgQueue<std::unique_ptr<CohPacket>> _mem;
    bool _busy = false;
    std::unique_ptr<CohPacket> _stalledReply;
};

} // namespace cenju

#endif // CENJU_PROTOCOL_SLAVE_HH
