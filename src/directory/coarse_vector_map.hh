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

#include <algorithm>
#include <cstdint>

#include "directory/node_map.hh"

namespace cenju
{

/** Coarse (group) bit vector over the node space. */
class CoarseVectorMap : public NodeMap
{
  public:
    /** Number of group bits (paper: 32). */
    static constexpr unsigned vectorBits = 32;

    /** @param num_nodes system size the map covers */
    explicit CoarseVectorMap(unsigned num_nodes)
        : _numNodes(num_nodes),
          _groupSize(std::max(1u, (num_nodes + vectorBits - 1) /
                                      vectorBits))
    {}

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

    unsigned
    representedCount(unsigned num_nodes) const override
    {
        unsigned c = 0;
        for (unsigned g = 0; g < vectorBits; ++g) {
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

    unsigned storageBits() const override { return vectorBits; }

    NodeMapKind kind() const override { return NodeMapKind::CoarseVector; }

    /** Nodes covered by one group bit. */
    unsigned groupSize() const { return _groupSize; }

  private:
    unsigned group(NodeId n) const { return n / _groupSize; }

    unsigned _numNodes;
    unsigned _groupSize;
    std::uint64_t _bits = 0;
};

} // namespace cenju

#endif // CENJU_DIRECTORY_COARSE_VECTOR_MAP_HH
