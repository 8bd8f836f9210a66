/**
 * @file
 * Limited pointers with an overflow structure: the node-map shape
 * shared by Cenju-4's map (overflow = bit-pattern, paper section 3.1)
 * and the Origin-style DIR_iCV_r map (overflow = coarse vector).
 *
 * Up to four sharers are held as exact pointers. Adding a fifth
 * distinct sharer re-encodes all recorded nodes into the overflow
 * structure, which stays in use until the map is reset (cleared, or
 * set to a single owner after an invalidation or exclusive grant).
 * The representation is therefore exact whenever |sharers| <= 4.
 */

#ifndef CENJU_DIRECTORY_POINTER_MAP_HH
#define CENJU_DIRECTORY_POINTER_MAP_HH

#include <array>
#include <utility>

#include "directory/node_map.hh"

namespace cenju
{

/**
 * Four exact pointers that switch to @p Overflow on the fifth
 * distinct sharer. @p Overflow provides clear/add/contains/empty/
 * decode/representedCount with NodeMap's meaning.
 */
template <class Overflow>
class PointerMap : public NodeMap
{
  public:
    /** Number of exact pointers before switching representation. */
    static constexpr unsigned numPointers = 4;

    explicit PointerMap(Overflow overflow = Overflow())
        : _overflow(std::move(overflow))
    {}

    void
    clear() override
    {
        _count = 0;
        _overflowMode = false;
        _overflow.clear();
    }

    void
    add(NodeId n) override
    {
        if (_overflowMode) {
            _overflow.add(n);
            return;
        }
        if (pointerHolds(n))
            return;
        if (_count < numPointers) {
            _pointers[_count++] = n;
            return;
        }
        // Fifth distinct sharer: switch representations.
        _overflowMode = true;
        _overflow.clear();
        for (unsigned i = 0; i < _count; ++i)
            _overflow.add(_pointers[i]);
        _overflow.add(n);
    }

    bool
    contains(NodeId n) const override
    {
        return _overflowMode ? _overflow.contains(n) : pointerHolds(n);
    }

    bool
    empty() const override
    {
        return _overflowMode ? _overflow.empty() : _count == 0;
    }

    NodeSet
    decode(unsigned num_nodes) const override
    {
        if (_overflowMode)
            return _overflow.decode(num_nodes);
        NodeSet s(num_nodes);
        for (unsigned i = 0; i < _count; ++i)
            s.insert(_pointers[i]);
        return s;
    }

    unsigned
    representedCount(unsigned num_nodes) const override
    {
        return _overflowMode ? _overflow.representedCount(num_nodes)
                             : _count;
    }

    /** True while the map is in the (exact) pointer structure. */
    bool pointerMode() const { return !_overflowMode; }

  protected:
    std::array<NodeId, numPointers> _pointers{};
    unsigned _count = 0;
    bool _overflowMode = false;
    Overflow _overflow;

  private:
    bool
    pointerHolds(NodeId n) const
    {
        for (unsigned i = 0; i < _count; ++i) {
            if (_pointers[i] == n)
                return true;
        }
        return false;
    }
};

} // namespace cenju

#endif // CENJU_DIRECTORY_POINTER_MAP_HH
