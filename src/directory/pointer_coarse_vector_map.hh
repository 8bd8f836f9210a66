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

#include <algorithm>

#include "directory/coarse_vector_map.hh"
#include "directory/pointer_map.hh"

namespace cenju
{

/** Pointer structure that overflows into a coarse vector. */
class PointerCoarseVectorMap : public PointerMap<CoarseVectorMap>
{
  public:
    explicit PointerCoarseVectorMap(unsigned num_nodes)
        : PointerMap(CoarseVectorMap(num_nodes))
    {}

    unsigned
    storageBits() const override
    {
        return std::max(CoarseVectorMap::vectorBits,
                        numPointers * nodeIdBits + 3);
    }

    NodeMapKind
    kind() const override
    {
        return NodeMapKind::PointerCoarseVector;
    }
};

} // namespace cenju

#endif // CENJU_DIRECTORY_POINTER_COARSE_VECTOR_MAP_HH
