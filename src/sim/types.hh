/**
 * @file
 * Fundamental scalar types and machine constants shared by every
 * module of the Cenju-4 DSM simulator.
 *
 * The simulated machine follows the paper's parameters: up to 1024
 * nodes, 128-byte coherence blocks, a 40-bit physical address whose
 * MSB selects shared (DSM) versus private access, a 10-bit node field
 * and a 29-bit offset for shared addresses.
 */

#ifndef CENJU_SIM_TYPES_HH
#define CENJU_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace cenju
{

/** Simulated time in nanoseconds. */
using Tick = std::uint64_t;

/** Sentinel for "no scheduled time". */
constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/** Node identifier (0 .. maxNodes-1). */
using NodeId = std::uint32_t;

/** Sentinel node id. */
constexpr NodeId invalidNode = std::numeric_limits<NodeId>::max();

/** 40-bit physical address, stored in 64 bits. */
using Addr = std::uint64_t;

/** Largest system Cenju-4 supports. */
constexpr unsigned maxNodes = 1024;

/** Bits in a node number (log2 of maxNodes). */
constexpr unsigned nodeIdBits = 10;

/** Coherence unit (cache line) in bytes. */
constexpr unsigned blockBytes = 128;

/** log2(blockBytes). */
constexpr unsigned blockShift = 7;

/** Offset bits within one node's shared segment (paper: 29). */
constexpr unsigned sharedOffsetBits = 29;

/** Offset bits for private accesses (paper: 29). */
constexpr unsigned privateOffsetBits = 29;

/** Bit position of the shared/private selector (MSB of 40 bits). */
constexpr unsigned sharedSelectBit = 39;

/** Maximum outstanding requests per processor (R10000: 4). */
constexpr unsigned maxOutstanding = 4;

/** Block-aligned base of an address. */
constexpr Addr
blockBase(Addr a)
{
    return a & ~static_cast<Addr>(blockBytes - 1);
}

} // namespace cenju

#endif // CENJU_SIM_TYPES_HH
