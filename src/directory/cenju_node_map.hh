/**
 * @file
 * Cenju-4's node map: a pointer structure that dynamically switches
 * to a bit-pattern structure (paper section 3.1).
 *
 * Up to four sharers are held as exact 10-bit pointers; the fifth
 * re-encodes all recorded nodes into the 42-bit bit-pattern
 * structure (PointerMap). The representation is therefore exact
 * whenever |sharers| <= 4, and exact for any sharer set in systems
 * of 32 nodes or fewer (a single 32-node group).
 */

#ifndef CENJU_DIRECTORY_CENJU_NODE_MAP_HH
#define CENJU_DIRECTORY_CENJU_NODE_MAP_HH

#include <cstdint>

#include "directory/bit_pattern.hh"
#include "directory/pointer_map.hh"

namespace cenju
{

/** Pointer + bit-pattern dynamic node map. */
class CenjuNodeMap : public PointerMap<BitPattern>
{
  public:
    unsigned
    storageBits() const override
    {
        // 42-bit pattern dominates: 4 pointers x 10 bits + 3-bit
        // count would also fit in the entry's 59 map bits.
        return BitPattern::storageBits;
    }

    NodeMapKind
    kind() const override
    {
        return NodeMapKind::CenjuPointerBitPattern;
    }

    /**
     * Pack into the 59 node-map bits of a directory entry.
     * Bit 58 selects the structure: 0 = pointers, 1 = bit-pattern.
     * Pointer form: [58]=0, [57:55] count, [39:0] four 10-bit
     * pointers. Bit-pattern form: [58]=1, [41:0] pattern.
     */
    std::uint64_t pack() const;

    /** Inverse of pack(). */
    static CenjuNodeMap unpackMap(std::uint64_t raw);
};

} // namespace cenju

#endif // CENJU_DIRECTORY_CENJU_NODE_MAP_HH
