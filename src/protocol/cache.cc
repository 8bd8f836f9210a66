#include "protocol/cache.hh"

namespace cenju
{

Cache::Cache(unsigned bytes)
{
    unsigned lines = bytes / blockBytes;
    if (lines < assoc)
        fatal("cache of %u bytes too small for %u ways", bytes,
              assoc);
    _sets = lines / assoc;
    // Power-of-two sets keep indexing a mask.
    while (_sets & (_sets - 1))
        --_sets;
    _setLines.resize(_sets);
}

CacheLine *
Cache::setBase(Addr addr)
{
    return _setLines[setIndex(addr)].get();
}

unsigned
Cache::setIndex(Addr addr) const
{
    // Hash the shared bit and node bits in so private and remote
    // blocks spread over all sets.
    std::uint64_t block = addr >> blockShift;
    block ^= block >> 17;
    return static_cast<unsigned>(block & (_sets - 1));
}

CacheLine *
Cache::lookup(Addr addr)
{
    CacheLine *base = setBase(addr);
    if (!base)
        return nullptr; // untouched set: nothing valid in it
    Addr tag = blockBase(addr);
    for (unsigned w = 0; w < assoc; ++w) {
        CacheLine &line = base[w];
        if (line.valid() && line.tag == tag)
            return &line;
    }
    return nullptr;
}

const CacheLine *
Cache::lookup(Addr addr) const
{
    return const_cast<Cache *>(this)->lookup(addr);
}

CacheLine *
Cache::allocate(Addr addr)
{
    auto &slot = _setLines[setIndex(addr)];
    if (!slot)
        slot = std::make_unique<CacheLine[]>(assoc);
    CacheLine *base = slot.get();
    CacheLine *victim = nullptr;
    for (unsigned w = 0; w < assoc; ++w) {
        CacheLine &line = base[w];
        if (!line.valid() && !line.pinned)
            return &line;
        if (!line.pinned &&
            (!victim || line.lastUse < victim->lastUse)) {
            victim = &line;
        }
    }
    return victim;
}

unsigned
Cache::validLines() const
{
    unsigned n = 0;
    for (const auto &slot : _setLines) {
        if (!slot)
            continue;
        for (unsigned w = 0; w < assoc; ++w)
            n += slot[w].valid();
    }
    return n;
}

} // namespace cenju
