/**
 * @file
 * User-level message passing over the same network as the DSM
 * (paper section 2; detailed in Kanoh et al. 1999).
 *
 * Cenju-4 supports both shared memory and message passing in
 * hardware; the NPB "mpi" variants, and the shared-memory library's
 * synchronization/reduction primitives, run on this layer. The
 * software-overhead model is calibrated to the paper's measured
 * 9.1 us latency and 169 MB/s throughput on a 128-node system:
 * sender overhead + one network traversal + receiver overhead +
 * payload size / bandwidth.
 */

#ifndef CENJU_MSGPASS_MSG_ENGINE_HH
#define CENJU_MSGPASS_MSG_ENGINE_HH

#include <cstdint>
#include "sim/inline_function.hh"
#include <unordered_map>
#include <vector>

#include "transport/packet.hh"
#include "node/dsm_node.hh"
#include "sim/hashing.hh"
#include "sim/object_pool.hh"
#include "sim/ring.hh"
#include "sim/types.hh"

namespace cenju
{

/** A user-level message on the wire. Pooled like CohPacket. */
class MsgPacket : public Packet, public Pooled<MsgPacket>
{
  public:
    std::unique_ptr<Packet>
    clone() const override
    {
        return std::make_unique<MsgPacket>(*this);
    }

    int tag = 0;

    /** Functional payload (words); timing uses payloadBytes. */
    std::vector<std::uint64_t> payload;

    /** Logical message size, which may exceed the carried words. */
    unsigned payloadBytes = 0;
};

/** Per-node send/recv engine with tag matching. */
class MsgEngine
{
  public:
    /** Inline storage sized like MasterModule's callbacks: the
     * wrapped lambdas capture at most one 32-byte callable. */
    using RecvCallback =
        InlineFunction<void(std::vector<std::uint64_t>), 40>;

    explicit MsgEngine(DsmNode &node);

    /**
     * Send @p payload to @p dst with @p tag; @p done fires when the
     * sender's processor is free again (after the software send
     * overhead).
     * @param bytes logical message size for timing (0 = derive
     *        from payload words)
     */
    void send(NodeId dst, int tag,
              std::vector<std::uint64_t> payload, unsigned bytes,
              InlineFunction<void(), 40> done);

    /**
     * Receive a message from @p src with @p tag; completes after
     * matching, receive overhead and payload transfer time.
     */
    void recv(NodeId src, int tag, RecvCallback done);

  private:
    struct Arrived
    {
        std::vector<std::uint64_t> payload;
        unsigned bytes;
        Tick arrivalTick;
    };

    struct PendingRecv
    {
        RecvCallback done;
    };

    void handleArrival(std::unique_ptr<MsgPacket> pkt);
    void complete(const Arrived &msg, RecvCallback done);

    DsmNode &_node;

    /** Keys are packKey(src, tag); see sim/hashing.hh. */
    std::unordered_map<std::uint64_t, Ring<Arrived>,
                       U64MixHash> _arrived;
    std::unordered_map<std::uint64_t, Ring<PendingRecv>,
                       U64MixHash> _waiting;
};

} // namespace cenju

#endif // CENJU_MSGPASS_MSG_ENGINE_HH
