/**
 * @file
 * Per-home-node directory: the collection of directory entries for
 * every shared block homed at a node.
 *
 * Hardware keeps one 64-bit entry per 128-byte block in a dedicated
 * 1/16 slice of main memory and finds it by block number; the
 * simulator indexes its entries the same way (sim/block_table.hh).
 * A slot is untouched until entry() gives it a node map; untouched
 * blocks are Clean with an empty map, which is exactly the initial
 * entry.
 */

#ifndef CENJU_DIRECTORY_DIRECTORY_HH
#define CENJU_DIRECTORY_DIRECTORY_HH

#include <cstddef>
#include <cstdint>

#include "directory/entry.hh"
#include "directory/node_map.hh"
#include "sim/block_table.hh"

namespace cenju
{

/** All directory entries homed at one node. */
class Directory
{
  public:
    /**
     * @param kind node-map scheme for every entry
     * @param num_nodes system size (sizes decode operations)
     */
    Directory(NodeMapKind kind, unsigned num_nodes)
        : _kind(kind), _numNodes(num_nodes)
    {}

    /** Entry for local block number @p block, created on demand. */
    DirectoryEntry &
    entry(std::uint64_t block)
    {
        DirectoryEntry &e = _entries.at(block);
        if (!e.touched())
            e = DirectoryEntry(makeNodeMap(_kind, _numNodes));
        return e;
    }

    /** Entry if it was touched, else nullptr (read-only probing). */
    const DirectoryEntry *
    find(std::uint64_t block) const
    {
        const DirectoryEntry *e = _entries.find(block);
        return e && e->touched() ? e : nullptr;
    }

    /** Visit every touched entry as f(localBlock, entry), in
     * ascending block order (checker sweeps). */
    template <typename F>
    void
    forEachEntry(F f) const
    {
        _entries.forEach(
            [&f](std::uint64_t block, const DirectoryEntry &e) {
                if (e.touched())
                    f(block, e);
            });
    }

    /** Number of touched entries. */
    std::size_t
    touchedEntries() const
    {
        std::size_t n = 0;
        forEachEntry([&n](std::uint64_t, const DirectoryEntry &) { ++n; });
        return n;
    }

    unsigned numNodes() const { return _numNodes; }

  private:
    NodeMapKind _kind;
    unsigned _numNodes;
    BlockTable<DirectoryEntry> _entries;
};

} // namespace cenju

#endif // CENJU_DIRECTORY_DIRECTORY_HH
