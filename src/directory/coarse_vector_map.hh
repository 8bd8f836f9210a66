/**
 * @file
 * Coarse vector node map (Gupta, Weber & Mowry 1990), the baseline
 * the paper compares against in Figure 4.
 *
 * Nodes are divided into vectorBits contiguous groups; one bit
 * represents a whole group, so any sharer taints its entire group.
 * With 32 bits over 1024 nodes each bit covers 32 nodes.
 */

#ifndef CENJU_DIRECTORY_COARSE_VECTOR_MAP_HH
#define CENJU_DIRECTORY_COARSE_VECTOR_MAP_HH

#include <bit>
#include <cstdint>

#include "directory/node_map.hh"
#include "sim/logging.hh"

namespace cenju
{

/** Coarse (group) bit vector over the node space. */
class CoarseVectorMap : public NodeMap
{
  public:
    /**
     * @param num_nodes system size the map covers
     * @param vector_bits number of group bits (paper: 32)
     */
    explicit CoarseVectorMap(unsigned num_nodes,
                             unsigned vector_bits = 32)
        : _numNodes(num_nodes), _vectorBits(vector_bits)
    {
        if (vector_bits == 0 || vector_bits > 64)
            fatal("coarse vector: %u bits unsupported", vector_bits);
        _groupSize = (num_nodes + vector_bits - 1) / vector_bits;
        if (_groupSize == 0)
            _groupSize = 1;
    }

    void clear() override { _bits = 0; }

    void
    add(NodeId n) override
    {
        _bits |= 1ull << group(n);
    }

    bool
    contains(NodeId n) const override
    {
        return n < _numNodes && ((_bits >> group(n)) & 1);
    }

    bool empty() const override { return _bits == 0; }

    bool
    isOnly(NodeId n, unsigned num_nodes) const override
    {
        // A group bit represents every node in the group, so the map
        // is exactly {n} only when the group has one live node.
        return contains(n) && representedCount(num_nodes) == 1;
    }

    NodeSet
    decode(unsigned num_nodes) const override
    {
        NodeSet s(num_nodes);
        for (NodeId n = 0; n < num_nodes && n < _numNodes; ++n) {
            if ((_bits >> group(n)) & 1)
                s.insert(n);
        }
        return s;
    }

    unsigned
    representedCount(unsigned num_nodes) const override
    {
        unsigned c = 0;
        for (unsigned g = 0; g < _vectorBits; ++g) {
            if (!((_bits >> g) & 1))
                continue;
            // Nodes in group g clipped to [0, min(num_nodes,_numNodes)).
            unsigned limit = std::min(num_nodes, _numNodes);
            unsigned lo = g * _groupSize;
            unsigned hi = std::min(lo + _groupSize, limit);
            if (hi > lo)
                c += hi - lo;
        }
        return c;
    }

    unsigned storageBits() const override { return _vectorBits; }

    NodeMapKind kind() const override { return NodeMapKind::CoarseVector; }

    /** Nodes covered by one group bit. */
    unsigned groupSize() const { return _groupSize; }

  private:
    unsigned group(NodeId n) const { return n / _groupSize; }

    unsigned _numNodes;
    unsigned _vectorBits;
    unsigned _groupSize;
    std::uint64_t _bits = 0;
};

} // namespace cenju

#endif // CENJU_DIRECTORY_COARSE_VECTOR_MAP_HH
