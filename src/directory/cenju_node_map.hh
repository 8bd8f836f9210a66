/**
 * @file
 * Cenju-4's node map: a pointer structure that dynamically switches
 * to a bit-pattern structure (paper section 3.1).
 *
 * Up to four sharers are held as exact 10-bit pointers. Adding a
 * fifth sharer re-encodes all recorded nodes into the 42-bit
 * bit-pattern structure, which stays in use until the map is reset
 * (cleared, or set to a single owner after an invalidation or
 * exclusive grant). The representation is therefore exact whenever
 * |sharers| <= 4, and exact for any sharer set in systems of 32
 * nodes or fewer (a single 32-node group).
 */

#ifndef CENJU_DIRECTORY_CENJU_NODE_MAP_HH
#define CENJU_DIRECTORY_CENJU_NODE_MAP_HH

#include <array>
#include <cstdint>

#include "directory/bit_pattern.hh"
#include "directory/node_map.hh"

namespace cenju
{

/** Pointer + bit-pattern dynamic node map. */
class CenjuNodeMap : public NodeMap
{
  public:
    /** Number of exact pointers before switching representation. */
    static constexpr unsigned numPointers = 4;

    CenjuNodeMap() = default;

    void
    clear() override
    {
        _count = 0;
        _bitPatternMode = false;
        _pattern.clear();
    }

    void
    add(NodeId n) override
    {
        if (_bitPatternMode) {
            _pattern.add(n);
            return;
        }
        for (unsigned i = 0; i < _count; ++i) {
            if (_pointers[i] == n)
                return;
        }
        if (_count < numPointers) {
            _pointers[_count++] = n;
            return;
        }
        // Fifth distinct sharer: switch representations.
        _bitPatternMode = true;
        _pattern.clear();
        for (unsigned i = 0; i < _count; ++i)
            _pattern.add(_pointers[i]);
        _pattern.add(n);
    }

    bool
    contains(NodeId n) const override
    {
        if (_bitPatternMode)
            return _pattern.contains(n);
        for (unsigned i = 0; i < _count; ++i) {
            if (_pointers[i] == n)
                return true;
        }
        return false;
    }

    bool
    empty() const override
    {
        return _bitPatternMode ? _pattern.empty() : _count == 0;
    }

    bool
    isOnly(NodeId n, unsigned num_nodes) const override
    {
        if (!_bitPatternMode)
            return _count == 1 && _pointers[0] == n;
        return _pattern.contains(n) &&
               _pattern.representedCount(num_nodes) == 1;
    }

    bool
    containsOther(NodeId n, unsigned num_nodes) const override
    {
        if (!_bitPatternMode) {
            for (unsigned i = 0; i < _count; ++i) {
                if (_pointers[i] != n)
                    return true;
            }
            return false;
        }
        unsigned represented = _pattern.representedCount(num_nodes);
        if (represented == 0)
            return false;
        if (!_pattern.contains(n))
            return true;
        return represented > 1;
    }

    NodeSet
    decode(unsigned num_nodes) const override
    {
        if (_bitPatternMode)
            return _pattern.decode(num_nodes);
        NodeSet s(num_nodes);
        for (unsigned i = 0; i < _count; ++i)
            s.insert(_pointers[i]);
        return s;
    }

    unsigned
    representedCount(unsigned num_nodes) const override
    {
        return _bitPatternMode
            ? _pattern.representedCount(num_nodes)
            : _count;
    }

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

    /** True while the map is in the (exact) pointer structure. */
    bool pointerMode() const { return !_bitPatternMode; }

    /** The bit-pattern structure (valid in bit-pattern mode). */
    const BitPattern &pattern() const { return _pattern; }

    /** Recorded pointers (valid in pointer mode). */
    const std::array<NodeId, numPointers> &
    pointers() const
    {
        return _pointers;
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

  private:
    std::array<NodeId, numPointers> _pointers{};
    unsigned _count = 0;
    bool _bitPatternMode = false;
    BitPattern _pattern;
};

} // namespace cenju

#endif // CENJU_DIRECTORY_CENJU_NODE_MAP_HH
