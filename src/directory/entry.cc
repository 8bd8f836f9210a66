#include "directory/entry.hh"

#include "sim/logging.hh"

namespace cenju
{

std::uint64_t
packEntry(MemState state, bool reservation, const CenjuNodeMap &map)
{
    std::uint64_t raw = map.pack();
    raw |= std::uint64_t(static_cast<std::uint8_t>(state) & 0x7)
        << 60;
    if (reservation)
        raw |= 1ull << 63;
    return raw;
}

UnpackedEntry
unpackEntry(std::uint64_t raw)
{
    unsigned state_bits = (raw >> 60) & 0x7;
    if (state_bits > 4)
        panic("unpackEntry: bad state %u", state_bits);
    UnpackedEntry e{static_cast<MemState>(state_bits),
                    ((raw >> 63) & 1) != 0,
                    CenjuNodeMap::unpackMap(raw & ((1ull << 59) - 1))};
    return e;
}

} // namespace cenju
