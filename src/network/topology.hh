/**
 * @file
 * Radix-4 omega (multistage shuffle-exchange) topology: wiring,
 * destination-tag routing, and per-port reachable id ranges.
 *
 * Cenju-4's network is built from 4x4 crossbar switches and changes
 * its stage count with the system size: 2 stages up to 16 nodes, 4
 * up to 128(256), 6 up to 1024 (Table 2). We realize this as an
 * omega network with S stages over 4^S channel addresses; node ids
 * above the real system size are simply unused endpoints.
 *
 * Channel algebra (digits base 4, S digits, MSD first):
 *  - a perfect 4-way shuffle (left digit rotation) precedes every
 *    stage;
 *  - the switch replaces the low digit of the channel address with
 *    the chosen output port.
 * Routing to destination d therefore picks output port = digit s of
 * d at stage s, and each (source, destination) pair has exactly one
 * path — giving the in-order delivery the coherence protocol relies
 * on. Every hop of that path is a closed form of (src, dst, s):
 *  - the row crossed at stage s is src's low S-1-s digits followed
 *    by dst's high s digits;
 *  - the input port at stage s is src's digit s;
 *  - output p of switch (s, r) reaches the ids whose high s digits
 *    are r's low s digits and whose digit s is p: one contiguous
 *    range of span = 4^(S-1-s) ids starting at
 *    ((r mod 4^s) * 4 + p) * span, clipped to the node count;
 *  - input p of switch (s, r) is entered by the paths from the ids
 *    whose low S-1-s digits are r's high ones and whose digit s is
 *    p, to every destination the switch routes to: one residue
 *    class, the ids v with v = p * span + (r >> 2s) (mod 4 * span).
 */

#ifndef CENJU_NETWORK_TOPOLOGY_HH
#define CENJU_NETWORK_TOPOLOGY_HH

#include <algorithm>
#include <utility>

#include "sim/types.hh"
#include "transport/net_config.hh"

namespace cenju
{

/** Static structure of one omega network instance. */
class Topology
{
  public:
    /**
     * @param num_nodes real endpoints (1 .. 1024); the stage count
     *        follows the Cenju-4 rule (NetConfig::defaultStages)
     */
    explicit Topology(unsigned num_nodes);

    unsigned numNodes() const { return _numNodes; }
    unsigned stages() const { return _stages; }

    /** Channel addresses per stage boundary (4^stages). */
    unsigned channels() const { return _channels; }

    /** Switches per stage. */
    unsigned rowsPerStage() const { return _channels / switchRadix; }

    /** Stage-0 (switch row, input port) fed by node @p n. */
    std::pair<unsigned, unsigned> injectPoint(NodeId n) const;

    /**
     * Downstream connection of output @p port of switch
     * (@p stage, @p row): the (row, input port) pair at stage+1.
     * @pre stage < stages() - 1
     */
    std::pair<unsigned, unsigned> link(unsigned stage, unsigned row,
                                       unsigned port) const;

    /** Node ejected by the final stage's (row, port). */
    NodeId
    ejectNode(unsigned row, unsigned port) const
    {
        return static_cast<NodeId>(row * switchRadix + port);
    }

    /**
     * Digit @p stage of @p id: the output port toward destination
     * @p id at @p stage, and the input port a path from source @p id
     * enters @p stage on.
     */
    unsigned
    routeDigit(NodeId id, unsigned stage) const
    {
        unsigned shift = 2 * (_stages - 1 - stage);
        return (id >> shift) & 0x3;
    }

    /** Switch row the path @p src -> @p dst crosses at @p stage. */
    unsigned
    row(NodeId src, NodeId dst, unsigned stage) const
    {
        unsigned srcBits = 2 * (_stages - 1 - stage);
        return ((src & ((1u << srcBits) - 1)) << (2 * stage)) |
               (dst >> (2 * (_stages - stage)));
    }

    /**
     * Real nodes reachable from output @p port of switch
     * (@p stage, @p row): the half-open id range [first, second),
     * empty when the port leads only to unused endpoints.
     */
    std::pair<NodeId, NodeId>
    reachRange(unsigned stage, unsigned row, unsigned port) const
    {
        unsigned span = 1u << (2 * (_stages - 1 - stage));
        unsigned prefix = row & ((1u << (2 * stage)) - 1);
        unsigned first = (prefix * switchRadix + port) * span;
        return {std::min(first, _numNodes),
                std::min(first + span, _numNodes)};
    }

    /**
     * Sources whose paths enter switch (@p stage, @p row) on input
     * @p port, toward any destination the switch routes to: the ids
     * congruent to first modulo second. The modulus is 4^(S-stage),
     * a power of two.
     */
    std::pair<unsigned, unsigned>
    inputResidue(unsigned stage, unsigned row, unsigned port) const
    {
        unsigned span = 1u << (2 * (_stages - 1 - stage));
        return {port * span + (row >> (2 * stage)), switchRadix * span};
    }

    /** 4-way perfect shuffle: left-rotate the S base-4 digits. */
    unsigned
    shuffle(unsigned channel) const
    {
        return ((channel << 2) | (channel >> (2 * (_stages - 1)))) &
               (_channels - 1);
    }

  private:
    unsigned _numNodes;
    unsigned _stages;
    unsigned _channels;
};

} // namespace cenju

#endif // CENJU_NETWORK_TOPOLOGY_HH
