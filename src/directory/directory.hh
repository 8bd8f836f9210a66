/**
 * @file
 * Per-home-node directory: the collection of directory entries for
 * every shared block homed at a node.
 *
 * Hardware keeps one 64-bit entry per 128-byte block in a dedicated
 * 1/16 slice of main memory; the simulator creates entries lazily on
 * first touch (untouched blocks are Clean with an empty map, which
 * is exactly the initial entry).
 */

#ifndef CENJU_DIRECTORY_DIRECTORY_HH
#define CENJU_DIRECTORY_DIRECTORY_HH

#include <cstdint>
#include <unordered_map>

#include "directory/entry.hh"
#include "directory/node_map.hh"
#include "sim/hashing.hh"

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
    {
        // Modest: per-node object, so eager buckets cost RAM and
        // construction time at 1024 nodes. Grows on demand.
        _entries.reserve(64);
    }

    /** Entry for local block number @p block, created on demand. */
    DirectoryEntry &
    entry(std::uint64_t block)
    {
        auto it = _entries.find(block);
        if (it == _entries.end()) {
            it = _entries
                     .emplace(block,
                              DirectoryEntry(
                                  makeNodeMap(_kind, _numNodes)))
                     .first;
        }
        return it->second;
    }

    /** Entry if it exists, else nullptr (read-only probing). */
    const DirectoryEntry *
    find(std::uint64_t block) const
    {
        auto it = _entries.find(block);
        return it == _entries.end() ? nullptr : &it->second;
    }

    /** Number of touched entries. */
    std::size_t touchedEntries() const { return _entries.size(); }

    /** Visit every touched entry as f(localBlock, entry) (checker
     * sweeps; iteration order is unspecified). */
    template <typename F>
    void
    forEachEntry(F f) const
    {
        // cenju-lint: allow(D003): consumers are the invariant
        // sweeps in src/check, which assert a property of every
        // entry; no digest or trace derives from visit order.
        for (const auto &[block, entry] : _entries)
            f(block, entry);
    }

    unsigned numNodes() const { return _numNodes; }

  private:
    NodeMapKind _kind;
    unsigned _numNodes;
    std::unordered_map<std::uint64_t, DirectoryEntry, U64MixHash>
        _entries;
};

} // namespace cenju

#endif // CENJU_DIRECTORY_DIRECTORY_HH
