/**
 * @file
 * Per-block state indexed by local block number: the table behind
 * each node's main memory and directory.
 *
 * Cenju-4 finds a block's data and its directory entry by block
 * number (paper section 3.3: the directory is a fixed 1/16 slice of
 * main memory), and DsmSystem::shmAlloc()/privAlloc() hand out each
 * node's offsets densely from 0, so a paged array holds the same
 * state as a hash map without hashing or a heap node per block.
 *
 * Slots live in pages of pageSlots, built value-initialized on the
 * first at() that reaches them; the page-pointer vector grows only
 * to the highest page at() reached. find() never builds anything and
 * returns null on an unbuilt page. A page never moves once built, so
 * a reference to a slot stays valid while the table grows.
 */

#ifndef CENJU_SIM_BLOCK_TABLE_HH
#define CENJU_SIM_BLOCK_TABLE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace cenju
{

/** Paged array of T indexed by local block number. */
template <typename T>
class BlockTable
{
  public:
    /** Slots per page: 1 KB of 128-byte blocks. A larger page costs
     * resident memory on sparse nodes (storm1024 touches a few
     * blocks on each of 1024 homes). */
    static constexpr std::size_t pageSlots = 8;

    /** Slot @p i, building its page on first use. */
    T &
    at(std::uint64_t i)
    {
        const std::size_t p = i / pageSlots;
        if (p >= _pages.size())
            _pages.resize(p + 1);
        if (!_pages[p])
            _pages[p] = std::make_unique<Page>();
        return (*_pages[p])[i % pageSlots];
    }

    /** Slot @p i, or null if its page was never built. */
    const T *
    find(std::uint64_t i) const
    {
        const std::size_t p = i / pageSlots;
        if (p >= _pages.size() || !_pages[p])
            return nullptr;
        return &(*_pages[p])[i % pageSlots];
    }

    /** Visit every slot of every built page as f(index, slot), in
     * ascending index order. */
    template <typename F>
    void
    forEach(F f) const
    {
        for (std::size_t p = 0; p < _pages.size(); ++p) {
            if (!_pages[p])
                continue;
            for (std::size_t s = 0; s < pageSlots; ++s)
                f(std::uint64_t(p * pageSlots + s), (*_pages[p])[s]);
        }
    }

  private:
    using Page = std::array<T, pageSlots>;

    std::vector<std::unique_ptr<Page>> _pages;
};

} // namespace cenju

#endif // CENJU_SIM_BLOCK_TABLE_HH
