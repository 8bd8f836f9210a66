/**
 * @file
 * Per-node main memory: a functional backing store of 128-byte
 * blocks, indexed by local block number (sim/block_table.hh).
 *
 * The simulator keeps real data so that coherence can be checked
 * end to end (a load observes the value of the last graduated store
 * in coherence order). Blocks read before any write are zero, like
 * freshly allocated pages; a read never builds a page.
 */

#ifndef CENJU_MEMORY_MAIN_MEMORY_HH
#define CENJU_MEMORY_MAIN_MEMORY_HH

#include <array>
#include <cstdint>

#include "memory/address_map.hh"
#include "sim/block_table.hh"
#include "sim/types.hh"

namespace cenju
{

/** One coherence block's worth of data (16 x 64-bit words). */
struct Block
{
    std::array<std::uint64_t, blockBytes / 8> w{};

    bool
    operator==(const Block &o) const
    {
        return w == o.w;
    }
};

/** Functional memory of one node. */
class MainMemory
{
  public:
    /** Block at local block number @p block (zero if untouched). */
    Block
    readBlock(std::uint64_t block) const
    {
        const Block *b = _blocks.find(block);
        return b ? *b : Block{};
    }

    /** Replace the block at local block number @p block. */
    void
    writeBlock(std::uint64_t block, const Block &data)
    {
        _blocks.at(block) = data;
    }

    /** 64-bit word at byte offset @p offset (8-byte aligned). */
    std::uint64_t
    readWord(Addr offset) const
    {
        const Block *b = _blocks.find(offset >> blockShift);
        return b ? b->w[(offset & (blockBytes - 1)) / 8] : 0;
    }

    /** Store a 64-bit word at byte offset @p offset. */
    void
    writeWord(Addr offset, std::uint64_t value)
    {
        _blocks.at(offset >> blockShift)
            .w[(offset & (blockBytes - 1)) / 8] = value;
    }

  private:
    BlockTable<Block> _blocks;
};

} // namespace cenju

#endif // CENJU_MEMORY_MAIN_MEMORY_HH
