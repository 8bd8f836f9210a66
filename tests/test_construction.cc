/**
 * @file
 * Construction cost: what building the fabric and the nodes costs
 * before the first event runs (docs/PERF.md, "Allocation rules").
 *
 * The binary replaces every form of the global operator new and
 * delete (plain, array, nothrow, sized and aligned) with counting
 * versions over malloc/free, so the sanitizer builds see matching
 * pairs. The bounds sit between the cost of eagerly built state
 * (empty std::deque queues and gather tables filled at construction:
 * ~23 KB per switch, ~18 KB per ideal-backend node; reserved hash
 * buckets for memory, directory and pending ops: ~6 KB per node)
 * and the cost of state built on first use (~1.2 KB per switch,
 * ~3 KB per node).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/dsm_system.hh"
#include "directory/directory.hh"
#include "memory/main_memory.hh"
#include "memory/msg_queue.hh"
#include "network/gather_table.hh"
#include "network/network.hh"
#include "sim/block_table.hh"
#include "sim/event_queue.hh"
#include "sim/ring.hh"

namespace
{

std::atomic<std::size_t> allocatedBytes{0};

void *
countedAlloc(std::size_t n, std::size_t align = 0) noexcept
{
    allocatedBytes.fetch_add(n, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    if (align <= alignof(std::max_align_t))
        return std::malloc(n);
    // aligned_alloc wants a size that is a multiple of the alignment.
    return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void *
countedAllocOrThrow(std::size_t n, std::size_t align = 0)
{
    if (void *p = countedAlloc(n, align))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAllocOrThrow(n); }
void *operator new[](std::size_t n) { return countedAllocOrThrow(n); }

void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAllocOrThrow(n, std::size_t(a));
}

void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAllocOrThrow(n, std::size_t(a));
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAlloc(n);
}

void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return countedAlloc(n, std::size_t(a));
}

void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return countedAlloc(n, std::size_t(a));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace cenju
{
namespace
{

/** Bytes requested from operator new while @p fn runs. */
template <typename Fn>
std::size_t
bytesAllocatedBy(Fn &&fn)
{
    std::size_t before = allocatedBytes.load();
    fn();
    return allocatedBytes.load() - before;
}

TEST(Construction, EmptyQueuesAndTablesAllocateNothing)
{
    const NetConfig net;
    unsigned sizes = 0;
    EXPECT_EQ(bytesAllocatedBy([&] {
                  GatherTable t(net.gatherTableEntries);
                  sizes += t.size();
              }),
              0u);
    EXPECT_EQ(bytesAllocatedBy([&] {
                  CombineTable t(net.combineTableEntries);
                  sizes += t.size();
              }),
              0u);
    EXPECT_EQ(sizes, net.gatherTableEntries + net.combineTableEntries);

    std::size_t held = 1;
    EXPECT_EQ(bytesAllocatedBy([&] {
                  Ring<PacketPtr> r;
                  held = r.size();
              }),
              0u);
    EXPECT_EQ(held, 0u);
    EXPECT_EQ(bytesAllocatedBy([&] {
                  MsgQueue<PacketPtr> q("home.reqQueue", 4096);
                  held = q.capacity();
              }),
              0u);
    EXPECT_EQ(held, 4096u);
}

TEST(Construction, RingAllocatesOnFirstPushAndKeepsItsHighWater)
{
    Ring<int> r;
    EXPECT_GT(bytesAllocatedBy([&] { r.push_back(1); }), 0u);
    // Wrapping within the first allocation (four slots) is free.
    EXPECT_EQ(bytesAllocatedBy([&] {
                  for (int i = 2; i <= 4; ++i)
                      r.push_back(i);
                  r.pop_front();
                  r.pop_front();
                  r.push_back(5);
                  r.push_back(6);
              }),
              0u);
    EXPECT_GT(bytesAllocatedBy([&] { r.push_back(7); }), 0u);
    for (int i = 8; i <= 100; ++i)
        r.push_back(i);
    while (!r.empty())
        r.pop_front();
    // Storage stays at the high-water mark: refilling is free.
    EXPECT_EQ(bytesAllocatedBy([&] {
                  for (int i = 0; i < 100; ++i)
                      r.push_back(i);
              }),
              0u);
}

TEST(Construction, FreshGatherTableAnswersWithoutBuildingSlots)
{
    GatherTable t(NetConfig{}.gatherTableEntries);
    bool idle = true;
    EXPECT_EQ(bytesAllocatedBy([&] {
                  for (std::uint16_t id : {0, 7, 2047, 2048, 4095}) {
                      idle = idle && t.canReserve(id) &&
                             t.slotFree(id) && !t.active(id);
                  }
                  idle = idle && t.activeCount() == 0;
              }),
              0u);
    EXPECT_TRUE(idle);
}

TEST(Construction, GatherTableReserveAbsorbForwardCycle)
{
    GatherTable t(2048);
    const std::uint16_t id = 5;
    const std::uint16_t alias = id + 2048; // same slot, other gather
    const std::uint8_t pattern = 0b0101;   // replies on ports 0, 2
    EXPECT_GT(bytesAllocatedBy([&] { t.reserveArrival(id); }), 0u);
    t.reserveArrival(id);
    EXPECT_FALSE(t.slotFree(id));
    EXPECT_TRUE(t.canReserve(id));
    EXPECT_FALSE(t.canReserve(alias));
    EXPECT_FALSE(t.active(id));

    EXPECT_EQ(t.absorb(id, 0, pattern), GatherTable::Result::Absorbed);
    EXPECT_TRUE(t.active(id));
    EXPECT_FALSE(t.active(alias));
    EXPECT_EQ(t.activeCount(), 1u);

    EXPECT_EQ(t.absorb(id, 2, pattern), GatherTable::Result::Forward);
    EXPECT_FALSE(t.active(id));
    EXPECT_TRUE(t.slotFree(id));
    EXPECT_TRUE(t.canReserve(alias));
    EXPECT_EQ(t.activeCount(), 0u);
}

TEST(Construction, EventQueueSteadyStateAllocatesNothing)
{
    // Each cycle puts events in all three of the kernel's places:
    // zero-delay followers in the calendar's bucket at now(), timed
    // events within the calendar span, events the span or more
    // ahead on the overflow heap, and events at marks on either
    // side of the span. The first cycles grow the slots and the
    // heap to their high-water marks; identical cycles after that
    // must not allocate.
    constexpr Tick span = EventQueue::calendarSpan;
    EventQueue eq;
    std::uint64_t ran = 0;
    auto cycle = [&] {
        EventQueue::Mark near = eq.mark(eq.now() + 1);
        EventQueue::Mark far = eq.mark(eq.now() + 2 * span);
        for (Tick i = 0; i < 8; ++i) {
            eq.scheduleAfter(1 + i * 100, [&eq, &ran] {
                ++ran;
                eq.scheduleAfter(0, [&ran] { ++ran; });
            });
            eq.scheduleAfter(span + i * 300, [&ran] { ++ran; });
        }
        eq.scheduleAfter(0, [&ran] { ++ran; });
        eq.scheduleAt(near, [&ran] { ++ran; });
        eq.scheduleAt(far, [&ran] { ++ran; });
        eq.run();
    };
    for (int i = 0; i < 4; ++i)
        cycle();
    EXPECT_EQ(bytesAllocatedBy([&] {
                  for (int i = 0; i < 100; ++i)
                      cycle();
              }),
              0u);
    EXPECT_EQ(ran, 104u * 27);
}

TEST(Construction, WarmBlockTablesReadAndWriteWithoutAllocating)
{
    // Once a page is built, memory and directory accesses to its
    // blocks are plain loads and stores.
    constexpr std::uint64_t blocks = 64;
    MainMemory mem;
    Directory dir(NodeMapKind::CenjuPointerBitPattern, 64);
    for (std::uint64_t b = 0; b < blocks; ++b) {
        mem.writeBlock(b, Block{});
        dir.entry(b);
    }
    std::uint64_t sum = 0;
    EXPECT_EQ(bytesAllocatedBy([&] {
                  for (std::uint64_t pass = 1; pass <= 4; ++pass) {
                      for (std::uint64_t b = 0; b < blocks; ++b) {
                          Block x = mem.readBlock(b);
                          x.w[0] += pass;
                          mem.writeBlock(b, x);
                          mem.writeWord(b * blockBytes + 8, pass);
                          sum += mem.readWord(b * blockBytes + 8);
                          dir.entry(b).setState(MemState::Dirty);
                          sum += dir.find(b) != nullptr;
                      }
                  }
              }),
              0u);
    EXPECT_EQ(sum, blocks * (1 + 2 + 3 + 4 + 4));
    EXPECT_EQ(mem.readBlock(blocks - 1).w[0], 1u + 2 + 3 + 4);

    // The page-pointer vector is the one cost that grows with the
    // block number: 8 bytes per page up to the top block of the
    // 29-bit offset space (about 4 MB), plus the page itself.
    constexpr std::uint64_t topBlock =
        (std::uint64_t(1) << (sharedOffsetBits - blockShift)) - 1;
    constexpr std::size_t pageSlots = BlockTable<Block>::pageSlots;
    EXPECT_LE(bytesAllocatedBy([&] { mem.writeBlock(topBlock, Block{}); }),
              (topBlock / pageSlots + 1) * sizeof(void *) +
                  pageSlots * sizeof(Block));
}

TEST(Construction, FabricAt1024NodesStaysUnderPerSwitchBound)
{
    constexpr double boundBytesPerSwitch = 4096;
    EventQueue eq;
    NetConfig cfg;
    cfg.numNodes = 1024;
    unsigned switches = 0;
    std::size_t bytes = bytesAllocatedBy([&] {
        Network net(eq, cfg);
        switches = net.topology().stages() * net.topology().rowsPerStage();
    });
    ASSERT_EQ(switches, 6144u); // 6 stages of 1024 rows (Table 2)
    EXPECT_LT(double(bytes) / switches, boundBytesPerSwitch)
        << bytes << " bytes for " << switches << " switches";
}

TEST(Construction, IdealSystemAt1024NodesStaysUnderPerNodeBound)
{
    constexpr double boundBytesPerNode = 4 * 1024;
    SystemConfig sc;
    sc.numNodes = 1024;
    sc.transport = TransportKind::Ideal;
    sc.reliability = ReliabilityKind::Off;
    sc.proto.cacheBytes = 8u << 10; // the benches' paper-scaled cache
    std::size_t bytes = bytesAllocatedBy([&] { DsmSystem sys(sc); });
    EXPECT_LT(double(bytes) / sc.numNodes, boundBytesPerNode)
        << bytes << " bytes for " << sc.numNodes << " nodes";
}

} // namespace
} // namespace cenju
