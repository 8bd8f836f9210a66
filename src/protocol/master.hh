/**
 * @file
 * Master module: the processor side of the coherence protocol.
 *
 * Accepts load/store requests for private and shared addresses,
 * manages the secondary cache and up to four outstanding shared
 * requests (MSHRs, matching the R10000's limit), issues the four
 * request types of the appendix, and completes accesses when grants
 * return. Handles the ownership race: if the line was invalidated
 * while an ownership request was in flight, the grant is useless
 * and the request is re-issued as a read-exclusive.
 */

#ifndef CENJU_PROTOCOL_MASTER_HH
#define CENJU_PROTOCOL_MASTER_HH

#include <array>
#include <cstdint>
#include "sim/inline_function.hh"
#include <memory>
#include <vector>

#include "protocol/cache.hh"
#include "protocol/coh_msg.hh"
#include "sim/ring.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "transport/combine.hh"

namespace cenju
{

class DsmNode;

/** Classification of a memory access for statistics (Table 3/4). */
enum class AccessClass
{
    Private,
    SharedLocal,
    SharedRemote,
};

/** Master-side statistics (Tables 3/4), reset by DsmNode. */
struct MasterStats
{
    Counter cacheHits;
    Counter cacheMisses;
    Counter missPrivate;
    Counter missSharedLocal;
    Counter missSharedRemote;
    Counter accPrivate;
    Counter accSharedLocal;
    Counter accSharedRemote;
    Counter writebacks;
    Counter nackRetries;
    Counter ownershipReissues;
    Counter updateStores;
    Counter atomicOps;
    SampleStat loadMissLatency;
    SampleStat storeMissLatency;
};

/** Processor-side protocol engine of one node. */
class MasterModule : public MasterStats
{
  public:
    /**
     * Completion callbacks are InlineFunction (docs/PERF.md): every
     * simulated access graduates through one, so they must not heap-
     * allocate. Capacity 40 keeps sizeof at 48, so a scheduled
     * closure that captures one still fits the event queue's 64-byte
     * inline window.
     */
    using LoadCallback = InlineFunction<void(std::uint64_t), 40>;
    using StoreCallback = InlineFunction<void(), 40>;

    explicit MasterModule(DsmNode &node);

    /** True if an MSHR is free (a new shared miss can issue). */
    bool canIssue() const;

    /**
     * Issue a 64-bit load at @p addr; @p done fires with the value
     * when the access graduates.
     */
    void load(Addr addr, LoadCallback done);

    /** Issue a 64-bit store of @p value at @p addr. */
    void store(Addr addr, std::uint64_t value, StoreCallback done);

    /**
     * Issue a typed atomic (fetch-add/min/max/swap) on a combinable
     * synchronization word (ROADMAP item 4). The request bypasses
     * the cache and MSHRs: combinable words are never cached, the
     * home applies the op to memory directly, and @p done fires
     * with the pre-op value. One atomic in flight per node (like
     * update rounds); further ops queue behind it.
     */
    void atomicOp(Addr addr, CombineOp op, std::uint64_t operand,
                  LoadCallback done);

    /** A grant (or nack) arrived from a home. */
    void handleGrant(const CohPacket &pkt);

    /**
     * Drop @p addr's block from the cache exactly as a replacement
     * would (writeback when Modified, silent otherwise). Used by the
     * checking subsystem to explore eviction/writeback interleavings
     * without constructing conflict-miss address patterns.
     * @return true if a valid, unpinned line was evicted
     */
    bool flushBlock(Addr addr);

    /** Classify @p addr relative to this node. */
    AccessClass classify(Addr addr) const;

    /** Outstanding shared requests right now. */
    unsigned outstanding() const;

    /** Block addresses of busy MSHRs (stall diagnostics). */
    std::vector<Addr> outstandingBlocks() const;

    /**
     * Phase epoch stamped on this node's outgoing requests; only
     * phase-priority homes order conflicts by it.
     */
    std::uint32_t epoch() const { return _epoch; }

    /** Enter the next phase (Env::barrier completion). */
    void advanceEpoch() { ++_epoch; }

  private:
    struct Mshr
    {
        bool busy = false;
        Addr blockAddr = 0;
        CohMsgType reqType = CohMsgType::ReadShared;
        bool isStore = false;
        Addr addr = 0;
        std::uint64_t storeValue = 0;
        LoadCallback loadDone;
        StoreCallback storeDone;
        Tick issueTick = 0;
    };

    /** An access parked behind an outstanding same-block request. */
    struct Deferred
    {
        Addr blockAddr;
        Addr addr;
        bool isStore;
        std::uint64_t storeValue;
        LoadCallback loadDone;
        StoreCallback storeDone;
    };

    /** Count @p addr's access class (accPrivate/...), return it. */
    AccessClass countAccess(Addr addr);

    void accessPrivate(Addr addr, bool is_store,
                       std::uint64_t value, LoadCallback ldone,
                       StoreCallback sdone);

    /**
     * Store to a replicated (update-protocol) word: apply locally,
     * multicast the update to every replica, complete on the
     * gathered acknowledgement. One update round in flight per
     * node (the gather identifier is the writer's node id).
     */
    void updateStore(Addr addr, std::uint64_t value,
                     StoreCallback done);
    void launchUpdate();
    void handleUpdateAck();
    void launchAtomic();
    void handleAtomicReply(const CohPacket &pkt);
    void missShared(Addr addr, bool is_store, std::uint64_t value,
                    LoadCallback ldone, StoreCallback sdone,
                    CohMsgType req);
    void replayDeferred(Addr block_addr);
    void sendRequest(unsigned slot);
    void complete(unsigned slot, std::uint64_t load_value);

    /**
     * Install @p data into the cache for @p mshr's block in @p state;
     * evicts (and writes back) a victim if needed.
     */
    CacheLine *install(Addr block_addr, const Block &data,
                       CacheState state);

    /** Evict @p line, emitting a writeback if it is dirty-shared. */
    void evict(CacheLine &line);

    struct PendingUpdate
    {
        Addr addr;
        std::uint64_t value;
        StoreCallback done;
    };

    /** A typed atomic queued behind the one in flight. */
    struct PendingAtomic
    {
        Addr addr;
        CombineOp op;
        std::uint64_t operand;
        LoadCallback done;
    };

    DsmNode &_node;
    std::array<Mshr, maxOutstanding> _mshrs;
    Ring<Deferred> _deferred;
    Ring<PendingUpdate> _updates;
    bool _updateBusy = false;
    Ring<PendingAtomic> _atomics;
    bool _atomicBusy = false;
    std::uint32_t _atomicCookie = 0; ///< reply-matching sequence
    std::uint32_t _epoch = 0;
};

} // namespace cenju

#endif // CENJU_PROTOCOL_MASTER_HH
