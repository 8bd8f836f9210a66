/**
 * @file
 * Hierarchical bit-map node map (Matsumoto et al., JUMP-1), the
 * second baseline of Figure 4.
 *
 * The map mirrors a quadruple-tree network: one 4-bit field per tree
 * level, each bit standing for one branch at that level; the same
 * field is shared by all switches of a level. A node's path from the
 * root is its id in base 4 (MSD first), so membership is the AND of
 * one bit per level — structurally a bit-pattern whose slices are
 * all 2 bits wide. Because the field of a level is shared across the
 * whole level (not per subtree), sharers in different subtrees taint
 * each other's branches, which is what costs this scheme precision.
 *
 * The paper's instance has six levels (24 bits); 10-bit node ids are
 * padded to 12 bits, so the top level's field only ever has bit 0
 * set in systems of up to 1024 nodes.
 */

#ifndef CENJU_DIRECTORY_HIER_BITMAP_MAP_HH
#define CENJU_DIRECTORY_HIER_BITMAP_MAP_HH

#include <array>
#include <cstdint>

#include "directory/node_map.hh"

namespace cenju
{

/** Six-level quadruple-tree hierarchical bit map (24 bits). */
class HierBitmapMap : public NodeMap
{
  public:
    /** Tree levels (paper: six). */
    static constexpr unsigned numLevels = 6;

    HierBitmapMap() = default;

    void
    clear() override
    {
        _fields.fill(0);
    }

    void
    add(NodeId n) override
    {
        for (unsigned l = 0; l < numLevels; ++l)
            _fields[l] |= std::uint8_t(1u << digit(n, l));
    }

    bool
    contains(NodeId n) const override
    {
        for (unsigned l = 0; l < numLevels; ++l) {
            if (!((_fields[l] >> digit(n, l)) & 1))
                return false;
        }
        return true;
    }

    bool
    empty() const override
    {
        // add() sets a bit at every level, so all-zero is the only
        // reachable empty encoding.
        for (auto f : _fields) {
            if (f)
                return false;
        }
        return true;
    }

    unsigned storageBits() const override { return 4 * numLevels; }

    NodeMapKind
    kind() const override
    {
        return NodeMapKind::HierarchicalBitmap;
    }

    /** Base-4 digit of node id @p n at tree level @p l (root = 0). */
    static unsigned
    digit(NodeId n, unsigned l)
    {
        unsigned shift = 2 * (numLevels - 1 - l);
        return (n >> shift) & 0x3;
    }

  private:
    std::array<std::uint8_t, numLevels> _fields{};
};

} // namespace cenju

#endif // CENJU_DIRECTORY_HIER_BITMAP_MAP_HH
