/**
 * @file
 * Limited pointers backed by a coarse vector — the DIR_iCV_r style
 * scheme of Gupta et al. used (with a full map below 64 nodes) by
 * the SGI Origin, marked with a dagger in the paper's Table 1.
 *
 * Behaves like Cenju-4's map except that the overflow structure is a
 * coarse vector instead of a bit-pattern, making it the natural
 * head-to-head ablation partner (bench A3).
 */

#ifndef CENJU_DIRECTORY_POINTER_COARSE_VECTOR_MAP_HH
#define CENJU_DIRECTORY_POINTER_COARSE_VECTOR_MAP_HH

#include <array>

#include "directory/coarse_vector_map.hh"
#include "directory/node_map.hh"

namespace cenju
{

/** Pointer structure that overflows into a coarse vector. */
class PointerCoarseVectorMap : public NodeMap
{
  public:
    /** Pointers before switching (matched to Cenju-4's four). */
    static constexpr unsigned numPointers = 4;

    explicit PointerCoarseVectorMap(unsigned num_nodes,
                                    unsigned vector_bits = 32)
        : _vector(num_nodes, vector_bits)
    {}

    void
    clear() override
    {
        _count = 0;
        _coarseMode = false;
        _vector.clear();
    }

    void
    add(NodeId n) override
    {
        if (_coarseMode) {
            _vector.add(n);
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
        _coarseMode = true;
        _vector.clear();
        for (unsigned i = 0; i < _count; ++i)
            _vector.add(_pointers[i]);
        _vector.add(n);
    }

    bool
    contains(NodeId n) const override
    {
        if (_coarseMode)
            return _vector.contains(n);
        for (unsigned i = 0; i < _count; ++i) {
            if (_pointers[i] == n)
                return true;
        }
        return false;
    }

    bool
    empty() const override
    {
        return _coarseMode ? _vector.empty() : _count == 0;
    }

    bool
    isOnly(NodeId n, unsigned num_nodes) const override
    {
        if (!_coarseMode)
            return _count == 1 && _pointers[0] == n;
        return _vector.isOnly(n, num_nodes);
    }

    NodeSet
    decode(unsigned num_nodes) const override
    {
        if (_coarseMode)
            return _vector.decode(num_nodes);
        NodeSet s(num_nodes);
        for (unsigned i = 0; i < _count; ++i)
            s.insert(_pointers[i]);
        return s;
    }

    unsigned
    representedCount(unsigned num_nodes) const override
    {
        return _coarseMode ? _vector.representedCount(num_nodes)
                           : _count;
    }

    unsigned
    storageBits() const override
    {
        return std::max(_vector.storageBits(),
                        numPointers * nodeIdBits + 3);
    }

    NodeMapKind
    kind() const override
    {
        return NodeMapKind::PointerCoarseVector;
    }

  private:
    std::array<NodeId, numPointers> _pointers{};
    unsigned _count = 0;
    bool _coarseMode = false;
    CoarseVectorMap _vector;
};

} // namespace cenju

#endif // CENJU_DIRECTORY_POINTER_COARSE_VECTOR_MAP_HH
