#include "directory/cenju_node_map.hh"

#include "sim/logging.hh"

namespace cenju
{

std::uint64_t
CenjuNodeMap::pack() const
{
    if (_overflowMode)
        return (1ull << 58) | _overflow.pack();

    std::uint64_t raw = 0;
    raw |= std::uint64_t(_count & 0x7) << 55;
    for (unsigned i = 0; i < _count; ++i)
        raw |= std::uint64_t(_pointers[i] & 0x3ff) << (i * 10);
    return raw;
}

CenjuNodeMap
CenjuNodeMap::unpackMap(std::uint64_t raw)
{
    CenjuNodeMap m;
    if ((raw >> 58) & 1) {
        m._overflowMode = true;
        m._overflow = BitPattern::unpack(raw & ((1ull << 42) - 1));
        return m;
    }
    unsigned count = (raw >> 55) & 0x7;
    if (count > numPointers)
        panic("CenjuNodeMap::unpackMap: pointer count %u", count);
    m._count = count;
    for (unsigned i = 0; i < count; ++i) {
        m._pointers[i] =
            static_cast<NodeId>((raw >> (i * 10)) & 0x3ff);
    }
    return m;
}

} // namespace cenju
