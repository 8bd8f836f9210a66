/**
 * @file
 * Transport packet base class and multicast destination
 * specification (backend-independent wire format).
 *
 * The destination of a multicast is specified with the same pointer
 * or bit-pattern structures as the directory node map (paper section
 * 3.2): making the two coincide guarantees the transport delivers to
 * exactly the represented set, never more. Every Transport backend
 * consumes the same header fields; subsystems (coherence protocol,
 * message passing) subclass Packet with their payloads.
 */

#ifndef CENJU_TRANSPORT_PACKET_HH
#define CENJU_TRANSPORT_PACKET_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "directory/bit_pattern.hh"
#include "directory/node_set.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "transport/combine.hh"

namespace cenju
{

/**
 * Destination specification carried in a packet header: a single
 * node, up to four exact pointers, or a 42-bit bit-pattern.
 */
class DestSpec
{
  public:
    enum class Kind : std::uint8_t { Unicast, Pointers, Pattern };

    /** Unicast to @p n. */
    static DestSpec
    unicast(NodeId n)
    {
        DestSpec d;
        d._kind = Kind::Unicast;
        d._pointers[0] = n;
        d._count = 1;
        return d;
    }

    /** Multicast to an explicit short list (<= 4 nodes). */
    static DestSpec
    pointers(const std::vector<NodeId> &nodes)
    {
        DestSpec d;
        d._kind = Kind::Pointers;
        d._count = 0;
        for (NodeId n : nodes) {
            if (d._count >= 4)
                panic("DestSpec::pointers: more than 4 nodes");
            d._pointers[d._count++] = n;
        }
        return d;
    }

    /** Multicast to the set represented by a bit-pattern. */
    static DestSpec
    pattern(const BitPattern &p)
    {
        DestSpec d;
        d._kind = Kind::Pattern;
        d._pattern = p;
        return d;
    }

    Kind kind() const { return _kind; }

    /** Unicast destination. @pre kind() == Unicast */
    NodeId
    unicastDest() const
    {
        if (_kind != Kind::Unicast)
            panic("DestSpec: not unicast");
        return _pointers[0];
    }

    /** Represented destination set, restricted to ids < num_nodes. */
    NodeSet
    decode(unsigned num_nodes) const
    {
        NodeSet s(num_nodes);
        switch (_kind) {
          case Kind::Unicast:
          case Kind::Pointers:
            for (unsigned i = 0; i < _count; ++i) {
                if (_pointers[i] < num_nodes)
                    s.insert(_pointers[i]);
            }
            break;
          case Kind::Pattern:
            s = _pattern.decode(num_nodes);
            break;
        }
        return s;
    }

  private:
    Kind _kind = Kind::Unicast;
    NodeId _pointers[4] = {0, 0, 0, 0};
    unsigned _count = 0;
    BitPattern _pattern;
};

/**
 * One message in flight. Subsystems (coherence protocol, message
 * passing) subclass this with their payloads; the network only looks
 * at the header fields.
 */
class Packet
{
  public:
    virtual ~Packet() = default;

    /** Copy for multicast replication. */
    virtual std::unique_ptr<Packet> clone() const = 0;

    /** Make this a unicast to @p n, dropping the decoded-set cache. */
    void
    readdress(NodeId n)
    {
        dest = DestSpec::unicast(n);
        decodedDestValid = false;
    }

    NodeId src = invalidNode;

    /** Header destination. Multicast iff dest.kind() != Unicast. */
    DestSpec dest;

    /** Total size in bytes (header + payload), for serialization. */
    unsigned sizeBytes = 16;

    /**
     * Gathered-reply fields (paper section 3.2). A gathered packet
     * is a unicast toward dest whose copies are merged in-network:
     * each switch waits for the inputs on which members of
     * gatherGroup converge, forwarding only the last arrival.
     */
    bool gathered = false;

    /** 10-bit gather identifier indexing switch gather tables. */
    std::uint16_t gatherId = 0;

    /**
     * The full set of nodes replying to this gather; shared by all
     * sibling replies so switches can compute wait patterns.
     */
    // cenju-lint: allow(A003): sibling gathered replies on
    // different nodes share one immutable group set; ownership is
    // genuinely shared and ends with the last in-flight sibling.
    std::shared_ptr<const NodeSet> gatherGroup;

    /**
     * Combining fields (ROADMAP item 4, NYU Ultracomputer lineage).
     * A combinable request is a unicast toward the home of
     * combineKey carrying one typed operand; requests to the same
     * key that meet at a switch merge into one packet whose operand
     * is the combineApply() fold of both. The home's single reply
     * (combinedReply = true, combineOperand = old memory value) is
     * decombined stage-by-stage on the way back: each switch that
     * merged spawns the absorbed requester's reply from the base
     * value and the prefix it recorded at merge time.
     */
    bool combinable = false;

    /** Reply half of the protocol: value rides in combineOperand. */
    bool combinedReply = false;

    CombineOp combineOp = CombineOp::FetchAdd;

    /** Request: accumulated operand. Reply: base (old) value. */
    std::uint64_t combineOperand = 0;

    /** The combinable synchronization word's address. */
    std::uint64_t combineKey = 0;

    /**
     * Identity of the (possibly merged) request a reply answers:
     * requests carry their own packetId here; the home echoes it.
     * Switch combining records are keyed by the absorbed packet's
     * ticket, which is globally unique because a packet is absorbed
     * at most once.
     */
    std::uint64_t combineTicket = 0;

    /** Requester-side correlation cookie, echoed in the reply. */
    std::uint32_t combineCookie = 0;

    /**
     * Home node of combineKey, pinned at first injection so the
     * `direct` backend's software combining tree can re-address a
     * request hop by hop without losing the final destination.
     */
    NodeId combineHome = invalidNode;

    /**
     * Reliability-layer fields (src/reliable/, docs/ARCHITECTURE.md
     * "Reliability layer"). Dead weight when the decorator is off.
     * The wrapper normalizes every packet to a plain unicast before
     * it reaches the inner fabric, stashing the fabric-service flags
     * (gathered/combinable/combinedReply) in relSavedFlags so the
     * receive side can restore them before upward delivery.
     */
    /** Per-(src,dst) sequence number; 0 means unsequenced. */
    std::uint32_t relSeq = 0;

    /** Header checksum stamped at send; verified at receive. */
    std::uint32_t relChecksum = 0;

    /** Stashed flags: bit0 gathered, bit1 combinable, bit2 reply. */
    std::uint8_t relSavedFlags = 0;

    /** Set when injected; used for latency statistics. */
    Tick injectTick = 0;

    /**
     * Lazily decoded multicast destination set, stored inline so the
     * decode never allocates. Clones copy the cache, so a copy made
     * after the first decode inherits the set for free.
     */
    mutable NodeSet decodedDestCache{0};

    /** True once decodedDestCache holds the decoded set. */
    mutable bool decodedDestValid = false;

    /** Monotonic id for debugging and deterministic tie-breaks. */
    std::uint64_t packetId = 0;
};

using PacketPtr = std::unique_ptr<Packet>;

} // namespace cenju

#endif // CENJU_TRANSPORT_PACKET_HH
