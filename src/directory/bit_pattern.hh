/**
 * @file
 * The Cenju-4 bit-pattern node-map structure (paper section 3.1,
 * Figure 3).
 *
 * A 10-bit node number is sliced into 2+2+1+5 bits; each slice is
 * one-hot encoded into 4-, 4-, 2- and 32-bit fields, and the fields
 * of all sharers are OR-ed together. Membership of node n is the AND
 * of its four field bits, so the represented set is the cartesian
 * product of the four decoded slices — a superset of the true
 * sharers that is exact whenever every slice has a single bit set,
 * and in particular for any set of nodes within one 32-node group.
 *
 * This value type is shared by the directory (node map) and by the
 * network (multicast destination specification): the paper makes the
 * two representations coincide so that a multicast reaches exactly
 * the nodes the directory represents.
 */

#ifndef CENJU_DIRECTORY_BIT_PATTERN_HH
#define CENJU_DIRECTORY_BIT_PATTERN_HH

#include <bit>
#include <cstdint>

#include "directory/node_set.hh"
#include "sim/types.hh"

namespace cenju
{

/** 42-bit bit-pattern set representation over 10-bit node ids. */
class BitPattern
{
  public:
    BitPattern() = default;

    /** Bits used by the structure (4 + 4 + 2 + 32). */
    static constexpr unsigned storageBits = 42;

    /** Add one node to the represented set. */
    void
    add(NodeId n)
    {
        _f1 |= std::uint8_t(1u << slice1(n));
        _f2 |= std::uint8_t(1u << slice2(n));
        _f3 |= std::uint8_t(1u << slice3(n));
        _f4 |= 1u << slice4(n);
    }

    /** Reset to the empty set. */
    void
    clear()
    {
        _f1 = _f2 = _f3 = 0;
        _f4 = 0;
    }

    /** True if no node is represented. */
    bool
    empty() const
    {
        return !_f1 && !_f2 && !_f3 && !_f4;
    }

    /** Conservative membership: true if @p n is represented. */
    bool
    contains(NodeId n) const
    {
        return ((_f1 >> slice1(n)) & 1) && ((_f2 >> slice2(n)) & 1) &&
               ((_f3 >> slice3(n)) & 1) && ((_f4 >> slice4(n)) & 1);
    }

    /**
     * Number of nodes represented, restricted to ids < @p num_nodes.
     * For a full 1024-node space this is the product of the field
     * popcounts.
     */
    unsigned
    representedCount(unsigned num_nodes) const
    {
        if (num_nodes >= maxNodes) {
            return std::popcount(_f1) * std::popcount(_f2) *
                   std::popcount(_f3) *
                   static_cast<unsigned>(std::popcount(_f4));
        }
        unsigned c = 0;
        for (NodeId n = 0; n < num_nodes; ++n)
            c += contains(n);
        return c;
    }

    /** Decode the represented set, restricted to ids < @p num_nodes. */
    NodeSet
    decode(unsigned num_nodes) const
    {
        NodeSet s(num_nodes);
        for (NodeId n = 0; n < num_nodes; ++n) {
            if (contains(n))
                s.insert(n);
        }
        return s;
    }

    /**
     * Pack into the low 42 bits of a word:
     * [41:38] f1, [37:34] f2, [33:32] f3, [31:0] f4.
     */
    std::uint64_t
    pack() const
    {
        return (std::uint64_t(_f1 & 0xf) << 38) |
               (std::uint64_t(_f2 & 0xf) << 34) |
               (std::uint64_t(_f3 & 0x3) << 32) | _f4;
    }

    /** Inverse of pack(). */
    static BitPattern
    unpack(std::uint64_t raw)
    {
        BitPattern p;
        p._f1 = (raw >> 38) & 0xf;
        p._f2 = (raw >> 34) & 0xf;
        p._f3 = (raw >> 32) & 0x3;
        p._f4 = static_cast<std::uint32_t>(raw & 0xffffffffu);
        return p;
    }

    bool
    operator==(const BitPattern &o) const
    {
        return _f1 == o._f1 && _f2 == o._f2 && _f3 == o._f3 &&
               _f4 == o._f4;
    }

    /** Bit-slice helpers (paper Figure 3: 2+2+1+5 of a 10-bit id). */
    static unsigned slice1(NodeId n) { return (n >> 8) & 0x3; }
    static unsigned slice2(NodeId n) { return (n >> 6) & 0x3; }
    static unsigned slice3(NodeId n) { return (n >> 5) & 0x1; }
    static unsigned slice4(NodeId n) { return n & 0x1f; }

  private:
    std::uint8_t _f1 = 0;  ///< 4-bit one-hot of id bits [9:8]
    std::uint8_t _f2 = 0;  ///< 4-bit one-hot of id bits [7:6]
    std::uint8_t _f3 = 0;  ///< 2-bit one-hot of id bit [5]
    std::uint32_t _f4 = 0; ///< 32-bit one-hot of id bits [4:0]
};

} // namespace cenju

#endif // CENJU_DIRECTORY_BIT_PATTERN_HH
