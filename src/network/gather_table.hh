/**
 * @file
 * Per-switch gather table (paper section 3.2, Figure 5b).
 *
 * Each switch records, per 10-bit gather identifier, a 4-bit wait
 * pattern: the input ports from which gathered replies are still
 * expected. The first reply of a gather activates the entry with the
 * computed pattern; every reply clears its own input bit; only the
 * reply that clears the last bit is forwarded. The real switch
 * dedicates 3.6% of its gates to a 1024-entry table.
 *
 * The table is a finite resource, so it is claimed through the same
 * reserve/commit handshake as the crosspoint buffers: a gathered
 * reply may only be reserved into a switch when its identifier's
 * slot is free or already owned by the same gather (canReserve /
 * reserveArrival). Identifiers larger than the table map onto slots
 * modulo the size — exactly the aliasing a real fixed-size table
 * would exhibit — and a slot held by a different in-flight gather
 * exerts back-pressure on the upstream instead of corrupting the
 * merge.
 */

#ifndef CENJU_NETWORK_GATHER_TABLE_HH
#define CENJU_NETWORK_GATHER_TABLE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/hashing.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "transport/collectives.hh"

namespace cenju
{

/** Wait-pattern table indexed by gather identifier modulo size. */
class GatherTable
{
  public:
    /**
     * Slot storage materializes on the first reserveArrival(), as
     * CombineTable's does: most switches in most runs never see a
     * gather, and at 1024 nodes an eager table would be 12 KB on
     * each of 6144 switches (docs/PERF.md's construction-cost rule).
     */
    explicit GatherTable(unsigned entries) : _entries(entries)
    {
        if (entries == 0)
            panic("gather table needs at least one entry");
    }

    /** Outcome of absorbing one gathered reply. */
    enum class Result
    {
        Absorbed, ///< more replies expected; message removed
        Forward   ///< last reply: forward it and free the entry
    };

    /**
     * May a reply of gather @p id be reserved into this switch?
     * True when the slot is free or mid-merge for the same id.
     */
    bool
    canReserve(std::uint16_t id) const
    {
        if (_slots.empty())
            return true;
        const Entry &e = slot(id);
        return !e.occupied() || e.owner == id;
    }

    /**
     * Claim the slot for one in-flight reply of gather @p id. Must
     * follow a successful canReserve; the claim is released by the
     * matching absorb().
     */
    void
    reserveArrival(std::uint16_t id)
    {
        if (_slots.empty())
            _slots.resize(_entries);
        Entry &e = slot(id);
        if (!e.occupied())
            e.owner = id;
        else if (e.owner != id)
            panic("gather %u: slot %u owned by gather %u", id,
                  id % size(), e.owner);
        ++e.pending;
    }

    /**
     * Absorb a gathered reply arriving on @p in_port.
     * @param id gather identifier
     * @param in_port switch input the reply arrived on (0..3)
     * @param full_pattern wait pattern for this gather at this
     *        switch, used if the entry is not yet active
     */
    Result
    absorb(std::uint16_t id, unsigned in_port,
           std::uint8_t full_pattern)
    {
        if (_slots.empty())
            panic("gather %u: arrival without reservation", id);
        Entry &e = slot(id);
        if (e.owner != id || e.pending == 0)
            panic("gather %u: arrival without reservation", id);
        --e.pending;
        std::uint8_t bit = static_cast<std::uint8_t>(1u << in_port);
        if (!e.active) {
            if (!(full_pattern & bit)) {
                panic("gather %u: arrival on port %u not in wait "
                      "pattern 0x%x", id, in_port, full_pattern);
            }
            e.active = true;
            e.waitPattern = full_pattern;
        } else if (!(e.waitPattern & bit)) {
            panic("gather %u: duplicate arrival on port %u", id,
                  in_port);
        }
        e.waitPattern = static_cast<std::uint8_t>(e.waitPattern & ~bit);
        if (e.waitPattern == 0) {
            e.active = false;
            return Result::Forward;
        }
        return Result::Absorbed;
    }

    /** True once every claim on @p id's slot has been released. */
    bool
    slotFree(std::uint16_t id) const
    {
        return _slots.empty() || !slot(id).occupied();
    }

    /** True if the entry for @p id is mid-gather. */
    bool
    active(std::uint16_t id) const
    {
        if (_slots.empty())
            return false;
        const Entry &e = slot(id);
        return e.active && e.owner == id;
    }

    /** Number of currently active entries (for tests/stats). */
    unsigned
    activeCount() const
    {
        unsigned n = 0;
        for (const Entry &e : _slots)
            n += e.active;
        return n;
    }

    unsigned size() const { return _entries; }

  private:
    struct Entry
    {
        std::uint16_t owner = 0;   ///< full id holding the slot
        std::uint16_t pending = 0; ///< reserved, not yet absorbed
        bool active = false;
        std::uint8_t waitPattern = 0;

        /** Claimed by reservations or a live wait pattern. */
        bool occupied() const { return active || pending != 0; }
    };

    Entry &slot(std::uint16_t id) { return _slots[id % size()]; }
    const Entry &
    slot(std::uint16_t id) const
    {
        return _slots[id % size()];
    }

    const unsigned _entries;
    /** Empty until the first reserveArrival() (lazy
     * materialization). */
    std::vector<Entry> _slots;
};

/**
 * Per-switch combining-record table (ROADMAP item 4): the gather
 * table generalized from "merge N fixed replies" to "merge typed
 * operands opportunistically". When two combinable requests to the
 * same key meet at a switch, the absorbed one dies there and a
 * record remembers how to reconstruct its reply from the merged
 * reply's base value:
 *
 *   absorbedValue = combineApply(op, replyBase, prefix)
 *
 * where prefix is the representative's accumulated operand captured
 * at merge time (transport/combine.hh has the algebra, and
 * transport/collectives.hh the merge and decombine steps every
 * backend shares).
 *
 * Records are keyed by the absorbed packet's ticket, which is
 * globally unique (a packet is absorbed at most once and ends its
 * life there), and occupy slot ticket % size — the same modulo
 * aliasing a fixed-size hardware table exhibits. Unlike the gather
 * table, an occupied slot never back-pressures: the merge is simply
 * skipped and the request forwards uncombined, so exhaustion
 * degrades toward the no-combining baseline instead of stalling
 * (tests/test_gather_exhaustion.cc covers both behaviors).
 */
class CombineTable
{
  public:
    /**
     * Slot storage materializes lazily on the first store(): most
     * switches in most runs never see a combinable request, and at
     * 1024 nodes an eager table would be ~100 KB on each of 1536
     * switches (docs/PERF.md's construction-cost rule).
     */
    explicit CombineTable(unsigned entries) : _entries(entries)
    {
        if (entries == 0)
            panic("combine table needs at least one entry");
    }

    /** May a merge keyed by @p absorbed_ticket record itself? */
    bool
    canRecord(std::uint64_t absorbed_ticket) const
    {
        return _slots.empty() ||
               !_slots[absorbed_ticket % size()].valid;
    }

    /** Store a merge record. @pre canRecord(r.absorbedTicket) */
    void
    store(const CombineRecord &r)
    {
        if (_slots.empty())
            _slots.resize(_entries);
        Slot &slot = _slots[r.absorbedTicket % size()];
        if (slot.valid)
            panic("combine table: slot %llu already occupied",
                  static_cast<unsigned long long>(
                      r.absorbedTicket % size()));
        slot.record = r;
        slot.valid = true;
        _byRep[r.repTicket].push_back(
            unsigned(r.absorbedTicket % size()));
        ++_active;
    }

    /** Live records whose representative is @p rep_ticket. */
    unsigned
    matches(std::uint64_t rep_ticket) const
    {
        auto it = _byRep.find(rep_ticket);
        return it == _byRep.end() ? 0 : unsigned(it->second.size());
    }

    /**
     * Remove every record whose representative is @p rep_ticket and
     * hand it to @p fn, in merge order (a reply descending through
     * this switch consumes the merges it answers). The rep-ticket
     * index makes this O(matches): a hot-spot storm calls it once
     * per reply per stage, and a table-proportional scan here
     * dominated the 1024-node bench's host time.
     */
    template <class Fn>
    void
    take(std::uint64_t rep_ticket, Fn &&fn)
    {
        auto it = _byRep.find(rep_ticket);
        if (it == _byRep.end())
            return;
        std::vector<unsigned> idxs = std::move(it->second);
        _byRep.erase(it);
        for (unsigned idx : idxs) {
            Slot &slot = _slots[idx];
            if (!slot.valid || slot.record.repTicket != rep_ticket)
                panic("combine table: index out of sync at slot "
                      "%u", idx);
            slot.valid = false;
            --_active;
            CombineRecord r = slot.record;
            fn(r);
        }
    }

    /** Records currently live (for tests / quiescence checks). */
    unsigned activeCount() const { return _active; }

    unsigned size() const { return _entries; }

  private:
    struct Slot
    {
        CombineRecord record;
        bool valid = false;
    };

    const unsigned _entries;
    /** Empty until the first store() (lazy materialization). */
    std::vector<Slot> _slots;
    /** repTicket -> slots of its live records, in merge order. */
    std::unordered_map<std::uint64_t, std::vector<unsigned>,
                       U64MixHash>
        _byRep;
    unsigned _active = 0;
};

} // namespace cenju

#endif // CENJU_NETWORK_GATHER_TABLE_HH
