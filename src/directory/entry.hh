/**
 * @file
 * Directory entry: per-128-byte-block coherence metadata (paper
 * Figure 2 and section 3.3).
 *
 * One entry holds a reservation bit (the queuing protocol's "a
 * request is parked at the head of the memory queue for this block"
 * marker), the memory block state, and the node map. Cenju-4 packs
 * the whole entry into 64 bits so the directory occupies 1/16 of
 * main memory independent of system size; packEntry()/unpackEntry()
 * implement that layout for the Cenju scheme, while the simulator's
 * working representation is this object. A default-constructed
 * entry is an untouched directory slot: it has no node map until
 * Directory::entry() gives it one.
 */

#ifndef CENJU_DIRECTORY_ENTRY_HH
#define CENJU_DIRECTORY_ENTRY_HH

#include <array>
#include <cstdint>
#include <memory>

#include "directory/cenju_node_map.hh"
#include "directory/node_map.hh"
#include "sim/text.hh"

namespace cenju
{

/**
 * Memory block states (paper appendix): two stable states and three
 * pending states used while the home waits for a reply.
 */
enum class MemState : std::uint8_t
{
    Clean,            ///< C^m: memory valid; node map lists sharers
    Dirty,            ///< D^m: one owner; memory may be stale
    PendingShared,    ///< Ps^m: read-shared forwarded to the owner
    PendingExclusive, ///< Pe^m: read-exclusive in flight
    PendingInvalidate ///< Pi^m: ownership (upgrade) in flight
};

/** True for the Ps/Pe/Pi states. */
constexpr bool
isPending(MemState s)
{
    return s == MemState::PendingShared ||
           s == MemState::PendingExclusive ||
           s == MemState::PendingInvalidate;
}

/** State names, in enumerator order (sim/text.hh). */
constexpr auto
enumNames(MemState)
{
    return std::array{"C", "D", "Ps", "Pe", "Pi"};
}

/** Working form of one directory entry. */
class DirectoryEntry
{
  public:
    /** Untouched slot: no node map yet. */
    DirectoryEntry() = default;

    /** Entry for a freshly allocated block: clean, no sharers. */
    explicit DirectoryEntry(std::unique_ptr<NodeMap> map)
        : _map(std::move(map))
    {}

    /** True once the entry has a node map (Directory::entry()). */
    bool touched() const { return _map != nullptr; }

    MemState state() const { return _state; }
    void setState(MemState s) { _state = s; }

    bool reservation() const { return _reservation; }
    void setReservation(bool r) { _reservation = r; }

    NodeMap &map() { return *_map; }
    const NodeMap &map() const { return *_map; }

  private:
    MemState _state = MemState::Clean;
    bool _reservation = false;
    std::unique_ptr<NodeMap> _map;
};

/**
 * Pack a Cenju-scheme entry into the 64-bit hardware layout:
 * bit 63 reservation, bits [62:60] state, bit 59 reserved-zero,
 * bits [58:0] node map (see CenjuNodeMap::pack()).
 */
std::uint64_t packEntry(MemState state, bool reservation,
                        const CenjuNodeMap &map);

/** Unpacked view of a 64-bit entry. */
struct UnpackedEntry
{
    MemState state;
    bool reservation;
    CenjuNodeMap map;
};

/** Inverse of packEntry(). */
UnpackedEntry unpackEntry(std::uint64_t raw);

} // namespace cenju

#endif // CENJU_DIRECTORY_ENTRY_HH
