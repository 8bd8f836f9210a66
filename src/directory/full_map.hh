/**
 * @file
 * Full-map directory (Censier & Feautrier 1978): one presence bit
 * per node. Always exact, but its storage grows linearly with the
 * system size — the non-scalable reference point of Table 1.
 */

#ifndef CENJU_DIRECTORY_FULL_MAP_HH
#define CENJU_DIRECTORY_FULL_MAP_HH

#include "directory/node_map.hh"

namespace cenju
{

/** Exact one-bit-per-node map. */
class FullMap : public NodeMap
{
  public:
    explicit FullMap(unsigned num_nodes) : _set(num_nodes) {}

    void clear() override { _set.clear(); }
    void add(NodeId n) override { _set.insert(n); }

    bool
    contains(NodeId n) const override
    {
        return _set.contains(n);
    }

    bool empty() const override { return _set.empty(); }

    NodeSet
    decode(unsigned num_nodes) const override
    {
        NodeSet s(num_nodes);
        _set.forEach([&s, num_nodes](NodeId n) {
            if (n < num_nodes)
                s.insert(n);
        });
        return s;
    }

    unsigned
    representedCount(unsigned) const override
    {
        return _set.count();
    }

    unsigned storageBits() const override { return _set.capacity(); }

    NodeMapKind kind() const override { return NodeMapKind::FullMap; }

  private:
    NodeSet _set;
};

} // namespace cenju

#endif // CENJU_DIRECTORY_FULL_MAP_HH
