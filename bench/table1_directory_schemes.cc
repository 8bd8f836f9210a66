/**
 * @file
 * Paper Table 1: characteristics of directory schemes.
 *
 * Hardware-cost scalability is measured concretely: directory bits
 * per memory block as the system grows. Access-cost scalability is
 * the number of directory/memory accesses needed to enumerate all
 * sharers of a block (the operation behind an invalidation round):
 * schemes that chain through caches or overflow into software must
 * walk per-sharer state, the coarse-vector and bit-pattern schemes
 * read one entry.
 */

#include <memory>

#include "bench/bench_util.hh"
#include "directory/node_map.hh"

namespace cenju
{
namespace
{

void
hardwareCostRows()
{
    std::printf("%-24s %14s %14s %14s %10s\n", "scheme",
                "bits@64", "bits@256", "bits@1024", "growth");
    struct Row
    {
        NodeMapKind kind;
        const char *growth;
    };
    const Row rows[] = {
        {NodeMapKind::FullMap, "O(N)"},
        {NodeMapKind::CoarseVector, "O(1)"},
        {NodeMapKind::PointerCoarseVector, "O(1)"},
        {NodeMapKind::HierarchicalBitmap, "O(log N)"},
        {NodeMapKind::CenjuPointerBitPattern, "O(1)*"},
    };
    for (const Row &r : rows) {
        unsigned b64 = makeNodeMap(r.kind, 64)->storageBits();
        unsigned b256 = makeNodeMap(r.kind, 256)->storageBits();
        unsigned b1024 = makeNodeMap(r.kind, 1024)->storageBits();
        std::printf("%-24s %14u %14u %14u %10s\n",
                    nameOf(r.kind), b64, b256, b1024,
                    r.growth);
    }
    std::printf("  (*) 42-bit bit-pattern covers the full 1024-node "
                "id space; the whole entry is one 64-bit word\n");
}

void
qualitativeRows()
{
    // The paper's qualitative table, with the enumeration cost made
    // explicit: directory accesses needed to find all S sharers.
    std::printf("\n%-24s %10s %14s  %s\n", "scheme (paper Table 1)",
                "hw cost", "access cost", "sharer enumeration");
    std::printf("%-24s %10s %14s  %s\n", "Full Map [2]", "x", "O",
                "1 entry read, but entry is N bits");
    std::printf("%-24s %10s %14s  %s\n", "Chained [5] (SCI)", "O",
                "x", "S linked directory reads through caches");
    std::printf("%-24s %10s %14s  %s\n", "LimitLESS [3]", "O", "x",
                "software trap walks overflow list");
    std::printf("%-24s %10s %14s  %s\n", "Dynamic Pointer [12]",
                "O", "x", "S pointer-chain reads in memory");
    std::printf("%-24s %10s %14s  %s\n",
                "Origin [8] (ptr+coarse)", "O", "O",
                "1 entry read (imprecise when coarse)");
    std::printf("%-24s %10s %14s  %s\n",
                "Cenju-4 (ptr+bit-pattern)", "O", "O",
                "1 entry read (imprecise beyond 4 ptrs)");
}

} // namespace
} // namespace cenju

int
main()
{
    cenju::bench::header(
        "Table 1: characteristics of directory schemes");
    cenju::hardwareCostRows();
    cenju::qualitativeRows();
    return 0;
}
