#include "directory/node_map.hh"

#include "directory/cenju_node_map.hh"
#include "directory/coarse_vector_map.hh"
#include "directory/full_map.hh"
#include "directory/hier_bitmap_map.hh"
#include "directory/pointer_coarse_vector_map.hh"
#include "sim/logging.hh"

namespace cenju
{

std::unique_ptr<NodeMap>
makeNodeMap(NodeMapKind kind, unsigned num_nodes)
{
    switch (kind) {
      case NodeMapKind::CenjuPointerBitPattern:
        return std::make_unique<CenjuNodeMap>();
      case NodeMapKind::CoarseVector:
        return std::make_unique<CoarseVectorMap>(num_nodes);
      case NodeMapKind::HierarchicalBitmap:
        return std::make_unique<HierBitmapMap>();
      case NodeMapKind::FullMap:
        return std::make_unique<FullMap>(num_nodes);
      case NodeMapKind::PointerCoarseVector:
        return std::make_unique<PointerCoarseVectorMap>(num_nodes);
    }
    panic("makeNodeMap: bad kind %d", static_cast<int>(kind));
}

} // namespace cenju
