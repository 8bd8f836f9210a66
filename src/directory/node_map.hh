/**
 * @file
 * Abstract interface for directory node-map schemes, plus a factory.
 *
 * A node map records which nodes cache a memory block. Scalable
 * schemes are imprecise: they may represent a superset of the true
 * sharers (never a subset — that would break coherence). The Fig 4
 * experiment and the A3 ablation compare schemes through this
 * interface; the coherence protocol holds one instance per directory
 * entry.
 */

#ifndef CENJU_DIRECTORY_NODE_MAP_HH
#define CENJU_DIRECTORY_NODE_MAP_HH

#include <array>
#include <memory>
#include <string>

#include "directory/node_set.hh"
#include "sim/text.hh"
#include "sim/types.hh"

namespace cenju
{

/** Available node-map schemes. */
enum class NodeMapKind
{
    CenjuPointerBitPattern, ///< 4 pointers -> 42-bit bit-pattern
    CoarseVector,           ///< 32-bit coarse vector
    HierarchicalBitmap,     ///< six 4-bit quad-tree level fields
    FullMap,                ///< one bit per node (not scalable)
    PointerCoarseVector,    ///< 4 pointers -> coarse vector (Origin)
};

/** Scheme names, in enumerator order (sim/text.hh). */
constexpr auto
enumNames(NodeMapKind)
{
    return std::array{"pointer+bit-pattern", "coarse vector",
                      "hierarchical bitmap", "full map",
                      "pointer+coarse vector"};
}

/** Record of nodes caching a block; may over-approximate. */
class NodeMap
{
  public:
    virtual ~NodeMap() = default;

    /** Reset to the empty set. */
    virtual void clear() = 0;

    /** Add one sharer. */
    virtual void add(NodeId n) = 0;

    /** Reset to exactly {n}. */
    void
    setOnly(NodeId n)
    {
        clear();
        add(n);
    }

    /** Conservative membership test. */
    virtual bool contains(NodeId n) const = 0;

    /** True if no node is represented. */
    virtual bool empty() const = 0;

    /**
     * True if the represented set is exactly {n}: used by the
     * protocol's "only the master is registered" checks.
     */
    bool
    isOnly(NodeId n, unsigned num_nodes) const
    {
        return contains(n) && representedCount(num_nodes) == 1;
    }

    /**
     * True if any node other than @p n is represented (within
     * ids < @p num_nodes).
     */
    bool
    containsOther(NodeId n, unsigned num_nodes) const
    {
        return representedCount(num_nodes) > (contains(n) ? 1u : 0u);
    }

    /** Represented set: every id < @p num_nodes that contains(). */
    virtual NodeSet
    decode(unsigned num_nodes) const
    {
        NodeSet s(num_nodes);
        for (NodeId n = 0; n < num_nodes; ++n) {
            if (contains(n))
                s.insert(n);
        }
        return s;
    }

    /** Number of nodes represented (ids < @p num_nodes). */
    virtual unsigned
    representedCount(unsigned num_nodes) const
    {
        return decode(num_nodes).count();
    }

    /** Storage cost of the structure in bits. */
    virtual unsigned storageBits() const = 0;

    /** Scheme kind. */
    virtual NodeMapKind kind() const = 0;
};

/**
 * Create a node map of the given scheme sized for @p num_nodes.
 * @param kind the scheme
 * @param num_nodes system size the map must cover
 */
std::unique_ptr<NodeMap> makeNodeMap(NodeMapKind kind,
                                     unsigned num_nodes);

} // namespace cenju

#endif // CENJU_DIRECTORY_NODE_MAP_HH
