/**
 * @file
 * Per-node main memory: a sparse functional backing store of
 * 128-byte blocks, addressed by local offset.
 *
 * The simulator keeps real data so that coherence can be checked
 * end to end (a load observes the value of the last graduated store
 * in coherence order). Blocks read before any write are zero, like
 * freshly allocated pages.
 */

#ifndef CENJU_MEMORY_MAIN_MEMORY_HH
#define CENJU_MEMORY_MAIN_MEMORY_HH

#include <array>
#include <cstdint>
#include <unordered_map>

#include "memory/address_map.hh"
#include "sim/hashing.hh"
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

/** Sparse functional memory of one node. */
class MainMemory
{
  public:
    MainMemory() { _blocks.reserve(64); }

    /** Block at local block number @p block (zero if untouched). */
    Block
    readBlock(std::uint64_t block) const
    {
        auto it = _blocks.find(block);
        return it == _blocks.end() ? Block{} : it->second;
    }

    /** Replace the block at local block number @p block. */
    void
    writeBlock(std::uint64_t block, const Block &data)
    {
        _blocks[block] = data;
    }

    /** 64-bit word at byte offset @p offset (8-byte aligned). */
    std::uint64_t
    readWord(Addr offset) const
    {
        auto it = _blocks.find(offset >> blockShift);
        if (it == _blocks.end())
            return 0;
        return it->second.w[(offset & (blockBytes - 1)) / 8];
    }

    /** Store a 64-bit word at byte offset @p offset. */
    void
    writeWord(Addr offset, std::uint64_t value)
    {
        _blocks[offset >> blockShift]
            .w[(offset & (blockBytes - 1)) / 8] = value;
    }

  private:
    std::unordered_map<std::uint64_t, Block, U64MixHash> _blocks;
};

} // namespace cenju

#endif // CENJU_MEMORY_MAIN_MEMORY_HH
