/**
 * @file
 * Secondary cache model: 2-way set-associative, 128-byte lines, LRU
 * replacement, MESI states, functional data.
 *
 * One cache per node, shared by the master module (processor side)
 * and the slave module (incoming forwards/invalidations operate on
 * the same lines). Private and shared addresses coexist; the
 * address's shared bit keeps their tags distinct.
 */

#ifndef CENJU_PROTOCOL_CACHE_HH
#define CENJU_PROTOCOL_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "memory/main_memory.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace cenju
{

/** MESI cache line states. */
enum class CacheState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** One cache line. */
struct CacheLine
{
    Addr tag = 0; ///< block-aligned full address
    CacheState state = CacheState::Invalid;
    bool pinned = false; ///< an outstanding request targets it
    std::uint64_t lastUse = 0;
    Block data;

    bool valid() const { return state != CacheState::Invalid; }
};

/** Two-way set-associative write-back cache. */
class Cache
{
  public:
    /** Ways per set (R10000 secondary cache: 2-way). */
    static constexpr unsigned assoc = 2;

    /** @param bytes total capacity */
    explicit Cache(unsigned bytes);

    /** Line holding @p addr's block, or nullptr. */
    CacheLine *lookup(Addr addr);
    const CacheLine *lookup(Addr addr) const;

    /**
     * Victim selection for @p addr's set: an invalid way if any,
     * else the LRU non-pinned way.
     * @return the line to fill (caller handles writeback of its old
     *         contents), or nullptr if every way is pinned.
     */
    CacheLine *allocate(Addr addr);

    /** Refresh LRU on an access. */
    void
    touch(CacheLine &line)
    {
        line.lastUse = ++_useClock;
    }

    unsigned sets() const { return _sets; }
    unsigned lineCount() const { return _sets * assoc; }

    /** Lines currently valid (footprint, for tests). */
    unsigned validLines() const;

  private:
    unsigned setIndex(Addr addr) const;

    /** Ways of one set, or null until the set is first touched. */
    CacheLine *setBase(Addr addr);

    unsigned _sets;
    std::uint64_t _useClock = 0;

    /**
     * Per-set line storage, materialized on first allocate. A
     * 1024-node system would otherwise zero gigabytes of CacheLine
     * vectors at construction; benches touch a tiny fraction.
     */
    std::vector<std::unique_ptr<CacheLine[]>> _setLines;
};

} // namespace cenju

#endif // CENJU_PROTOCOL_CACHE_HH
