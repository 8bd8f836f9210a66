/**
 * @file
 * Coherence protocol messages (paper section 3.3 and appendix).
 *
 * Naming follows the paper: a *master* originates an access, the
 * *home* owns the directory for the address, *slaves* cache the
 * data. Replies from slaves go to the home, which forwards them to
 * the master (the 3-hop pattern that removes DASH's nack races,
 * Figure 7/8).
 */

#ifndef CENJU_PROTOCOL_COH_MSG_HH
#define CENJU_PROTOCOL_COH_MSG_HH

#include <array>
#include <cstdint>
#include <memory>

#include "memory/main_memory.hh"
#include "transport/packet.hh"
#include "sim/object_pool.hh"
#include "sim/text.hh"
#include "sim/types.hh"

namespace cenju
{

/** All message types exchanged by the protocol engines. */
enum class CohMsgType : std::uint8_t
{
    // master -> home requests
    ReadShared,    ///< load miss
    ReadExclusive, ///< store miss
    Ownership,     ///< store hit on a shared block (no data needed)
    WriteBack,     ///< modified block replacement (no reply)

    // home -> slave
    FwdReadShared,    ///< read-shared forwarded to the owner
    FwdReadExclusive, ///< read-exclusive forwarded to the owner
    Invalidate,       ///< invalidation (unicast or multicast)

    // slave -> home
    SlaveAck,  ///< forwarded request served without data
    SlaveData, ///< forwarded request served with the dirty block
    InvAck,    ///< invalidation acknowledged (gathered in-network)

    // home -> master grants
    GrantShared,    ///< data, cache to S^c
    GrantExclusive, ///< data, cache to E^c
    GrantModified,  ///< data, cache to M^c
    GrantOwnership, ///< no data, upgrade S^c -> M^c

    // nack-protocol baseline only
    Nack, ///< retry later (DASH-style; never sent by Cenju mode)

    // update-type protocol extension (the paper's future work:
    // main memory as a third-level cache, updated on writes)
    UpdateWrite, ///< multicast word update to every replica
    UpdateAck,   ///< gathered acknowledgement back to the writer

    // combinable typed atomics on non-coherent synchronization
    // words (ROADMAP item 4): combined in-network where the
    // transport supports it, applied at the home bypassing the
    // directory (the word is never cached).
    AtomicOp,    ///< master -> home: fetch-add/min/max/swap
    AtomicReply, ///< home -> master: old value, decombined en route
};

/** Message-type names, in enumerator order (sim/text.hh). */
constexpr auto
enumNames(CohMsgType)
{
    return std::array{
        "ReadShared",     "ReadExclusive",  "Ownership",
        "WriteBack",      "FwdReadShared",  "FwdReadExclusive",
        "Invalidate",     "SlaveAck",       "SlaveData",
        "InvAck",         "GrantShared",    "GrantExclusive",
        "GrantModified",  "GrantOwnership", "Nack",
        "UpdateWrite",    "UpdateAck",      "AtomicOp",
        "AtomicReply"};
}

/** True for the four master-originated request types. */
constexpr bool
isRequest(CohMsgType t)
{
    return t == CohMsgType::ReadShared ||
           t == CohMsgType::ReadExclusive ||
           t == CohMsgType::Ownership || t == CohMsgType::WriteBack;
}

/** True for replies the master module consumes (incl. Nack). */
constexpr bool
isGrant(CohMsgType t)
{
    return t == CohMsgType::GrantShared ||
           t == CohMsgType::GrantExclusive ||
           t == CohMsgType::GrantModified ||
           t == CohMsgType::GrantOwnership ||
           t == CohMsgType::Nack || t == CohMsgType::UpdateAck ||
           t == CohMsgType::AtomicReply;
}

/** True for messages a slave module consumes. */
constexpr bool
isSlaveBound(CohMsgType t)
{
    return t == CohMsgType::FwdReadShared ||
           t == CohMsgType::FwdReadExclusive ||
           t == CohMsgType::Invalidate ||
           t == CohMsgType::UpdateWrite;
}

/** True for messages the home module consumes. */
constexpr bool
isHomeBound(CohMsgType t)
{
    return isRequest(t) || t == CohMsgType::SlaveAck ||
           t == CohMsgType::SlaveData || t == CohMsgType::InvAck ||
           t == CohMsgType::AtomicOp;
}

/**
 * A coherence message travelling on the network. Pooled: forwarding
 * and clone paths recycle CohPacket blocks through a thread-local
 * freelist instead of hitting the heap per hop.
 */
class CohPacket : public Packet, public Pooled<CohPacket>
{
  public:
    std::unique_ptr<Packet>
    clone() const override
    {
        return std::make_unique<CohPacket>(*this);
    }

    CohMsgType type = CohMsgType::ReadShared;

    /** Block-aligned shared physical address. */
    Addr addr = 0;

    /** Originating master (carried through forwards and replies). */
    NodeId master = invalidNode;

    /** Master's outstanding-request slot, echoed in the grant. */
    std::uint8_t mshr = 0;

    /**
     * Phase epoch of the issuing master at send time: a
     * phase-priority home orders same-block conflicts by it; the
     * other protocols ignore it. Rides in the existing 16-byte
     * header, so wireSize() is unchanged.
     */
    std::uint32_t reqEpoch = 0;

    /** Block payload (WriteBack, SlaveData, data grants). */
    bool hasData = false;
    Block data;

    /**
     * Invalidation-to-ack gathering plumbing: a multicast Invalidate
     * carries the gather id and reply group its InvAcks must use
     * (the slave copies them onto the gathered reply).
     */
    bool ackGathered = false;
    std::uint16_t ackGatherId = 0;
    // cenju-lint: allow(A003): shared read-only by every sibling
    // ack in one invalidation round (see Packet::gatherGroup).
    std::shared_ptr<const NodeSet> ackGatherGroup;

    /** Header size plus block payload if present. */
    static unsigned
    wireSize(bool has_data)
    {
        return has_data ? 16 + blockBytes : 16;
    }
};

/** Convenience constructor. */
inline std::unique_ptr<CohPacket>
makeCohPacket(CohMsgType type, NodeId src, NodeId dst, Addr addr,
              NodeId master, std::uint8_t mshr)
{
    auto p = std::make_unique<CohPacket>();
    p->type = type;
    p->src = src;
    p->dest = DestSpec::unicast(dst);
    p->addr = addr;
    p->master = master;
    p->mshr = mshr;
    p->sizeBytes = CohPacket::wireSize(false);
    return p;
}

} // namespace cenju

#endif // CENJU_PROTOCOL_COH_MSG_HH
