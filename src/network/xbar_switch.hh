/**
 * @file
 * 4x4 crossbar switch with crosspoint buffers, virtual cut-through
 * flow control, in-switch multicast replication and gather merging
 * (paper section 3.2, Figure 5).
 *
 * Cenju-4 uses a crosspoint buffer per (input, output) pair — 16 per
 * switch — so that multicast forwarding never needs arbitration
 * *between* switches. We model the same structure: a packet is
 * handed over with a two-phase reserve/commit handshake (the reserve
 * models cut-through buffer pre-allocation), multicast packets are
 * replicated into one crosspoint buffer per covered output port, and
 * gathered replies are merged against the switch's gather table,
 * with only the last reply of a gather forwarded.
 */

#ifndef CENJU_NETWORK_XBAR_SWITCH_HH
#define CENJU_NETWORK_XBAR_SWITCH_HH

#include <array>
#include <utility>

#include "network/gather_table.hh"
#include "network/topology.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/ring.hh"
#include "transport/net_config.hh"
#include "transport/packet.hh"

namespace cenju
{

class Network;

/**
 * A point in the event order at which one port's work runs on
 * demand: the release of a serializer (a switch output or a node
 * injector) or a switch output's arbitration. The owner marks the
 * point (EventQueue::mark) and schedules the work there only once
 * it can act (arm). Work that runs thus has the (tick, seq) of an
 * event scheduled every time, and work that would find nothing to
 * do, and so change nothing, never exists. The order of each mark
 * against its neighbours is part of the simulated order the golden
 * digests pin.
 *
 * A release point is marked at grant. The owner arms it at grant if
 * packets remain queued behind the granted one (or, for an
 * injector, its node waits for space), and whenever a packet joins
 * a port still busy. Arming any later, say from the arbitration the
 * join wakes, would be too late when the join sorts before the
 * release point within its tick.
 */
class PortRelease
{
  public:
    /** True until the queue reaches the point. */
    bool
    busy(const EventQueue &eq) const
    {
        return !eq.reached(point());
    }

    /** True if the point lies at or before tick @p t. */
    bool
    freeBy(Tick t) const
    {
        return _when <= t;
    }

    /** A grant: the point lies @p occupancy ticks from now. */
    void
    grant(EventQueue &eq, Tick occupancy)
    {
        EventQueue::Mark m = eq.mark(eq.now() + occupancy);
        _when = m.when;
        _seq = m.seq;
        _armed = false;
    }

    /** Run @p work at the point, unless it is passed or already
     * armed. */
    template <typename Fn>
    void
    arm(EventQueue &eq, Fn &&work)
    {
        if (_armed || eq.reached(point()))
            return;
        _armed = true;
        eq.scheduleAt(point(), std::forward<Fn>(work));
    }

  private:
    EventQueue::Mark point() const { return {_when, _seq}; }

    // The state is one mark's 16 bytes (every switch output keeps
    // two points): seqs count events and marks and stay far below
    // 2^63, so the armed flag takes the top bit of the seq's word.
    Tick _when = 0;
    std::uint64_t _seq : 63 = 0;
    std::uint64_t _armed : 1 = 0;
};

/** One 4x4 crossbar switch of the multistage network. */
class XbarSwitch
{
  public:
    XbarSwitch(EventQueue &eq, Network &net, const Topology &topo,
               const NetConfig &cfg, unsigned stage, unsigned row);

    XbarSwitch(const XbarSwitch &) = delete;
    XbarSwitch &operator=(const XbarSwitch &) = delete;

    unsigned stage() const { return _stage; }
    unsigned row() const { return _row; }

    /**
     * Phase 1 of a handoff: reserve crosspoint buffer space for
     * @p pkt arriving on @p in_port. For a multicast this reserves a
     * slot in every covered output's buffer, all or nothing; a
     * gathered reply additionally claims its gather-table slot.
     * @retval false if any needed buffer is full or the gather
     * table slot is held by a different gather; the upstream must
     * wait for its input-space callback.
     */
    bool reserve(unsigned in_port, const Packet &pkt);

    /**
     * Phase 2: the packet physically arrives on @p in_port (wire
     * latency after a successful reserve). Runs gather merging and
     * multicast replication, then enqueues into crosspoint buffers.
     */
    void commit(unsigned in_port, PacketPtr pkt);

    /**
     * Register the single upstream's retry callback for @p in_port;
     * fired whenever buffer space frees on that input.
     */
    void
    onInputSpace(unsigned in_port, InlineFunction<void()> cb)
    {
        _spaceCallbacks[in_port] = std::move(cb);
    }

    /** Downstream wiring (interior stages). */
    void
    connectDownstream(unsigned out_port, XbarSwitch *sw,
                      unsigned their_in_port)
    {
        _down[out_port] = sw;
        _downPort[out_port] = their_in_port;
    }

    /**
     * Wake output @p out_port: arbitrate it at this point of the
     * current tick, on demand (PortRelease). A wake-up takes the
     * place a zero-delay event would take; later wake-ups before
     * that place coalesce into it. The arbitration is scheduled
     * there only once the output can grant (canGrant), whether at
     * this wake-up or at a later one before the place, and every
     * way an output becomes able to grant wakes it: a packet joins
     * (enqueue), its endpoint frees space (unblockEject) or a fault
     * window closes (faultKick); a port still busy is arbitrated at
     * its release point instead (armRelease). An arbitration left
     * unscheduled would have returned at its busy, blocked or
     * empty-queue test and changed nothing.
     */
    void scheduleArbitrate(unsigned out_port);

    /**
     * Endpoint space freed behind final-stage output @p out_port:
     * re-arbitrate it if it is blocked on ejection.
     */
    void unblockEject(unsigned out_port);

    /**
     * A fault window on this switch closed (capacity squeeze or
     * output stall): wake every upstream blocked on our buffers and
     * re-arbitrate every output.
     */
    void faultKick();

    /**
     * Output ports a packet entering this switch must cover, as a
     * mask (bit p = output port p).
     */
    std::uint8_t targetPorts(const Packet &pkt) const;

    /** Gather wait pattern for @p pkt at this switch. */
    std::uint8_t gatherWaitPattern(const Packet &pkt) const;

    const GatherTable &gatherTable() const { return _gather; }

    /**
     * Combining-record table (mutable: the reply descent pops the
     * records it answers — Network::descendReply).
     */
    CombineTable &combineTable() { return _combine; }

    /** Reserves refused on gather-table occupancy (for tests). */
    std::uint64_t gatherBlockCount() const { return _gatherBlockCount; }

    /** Buffered + reserved packets in (in, out)'s buffer. */
    unsigned
    occupancy(unsigned in, unsigned out) const
    {
        const Fifo &f = _xb[in][out];
        return unsigned(f.q.size()) + f.reserved;
    }

  private:
    struct Fifo
    {
        Ring<PacketPtr> q;
        unsigned reserved = 0;

        unsigned
        used() const
        {
            return unsigned(q.size()) + reserved;
        }
    };

    /**
     * Try to merge a just-arrived combinable request into a
     * same-key request co-queued for its one output @p outs
     * (ROADMAP item 4).
     * @retval true if @p pkt was absorbed (reservation released,
     * packet destroyed, combining record stored)
     */
    bool tryCombine(unsigned in_port, std::uint8_t outs,
                    PacketPtr &pkt);

    void arbitrate(unsigned out);

    /**
     * True if arbitrate(@p out) at a wake-up's place in this tick
     * can act: a packet is queued for @p out, it is not blocked on
     * ejection, and its release point lies at or before now (a
     * point marked at an earlier tick, since occupancies are
     * positive, so it sorts before the wake-up).
     */
    bool canGrant(unsigned out) const;

    /** True if a packet is queued for @p out. */
    bool queued(unsigned out) const;

    /**
     * Occupy @p out for @p occupancy ticks from a grant, arming its
     * release if packets still wait for it. Called before the
     * grant's hand-off (downstream commit or eject) is scheduled.
     */
    void grant(unsigned out, Tick occupancy);

    /** Run arbitrate(out) at @p out's release point (PortRelease). */
    void armRelease(unsigned out);

    void enqueue(unsigned in, unsigned out, PacketPtr pkt);
    void releaseReservation(unsigned in, std::uint8_t outs);
    void inputSpaceFreed(unsigned in);

    EventQueue &_eq;
    Network &_net;
    const Topology &_topo;
    const NetConfig &_cfg;
    unsigned _stage;
    unsigned _row;
    bool _lastStage;

    Fifo _xb[switchRadix][switchRadix];
    std::array<PortRelease, switchRadix> _release{};
    std::array<PortRelease, switchRadix> _wake{};
    std::array<bool, switchRadix> _blockedEject{};
    /** Some reserve failed on gather-table occupancy (not buffer
     * space); cleared by the wake when the owning gather forwards.
     * Never set under a table sized for the live gather-id space,
     * so the default configuration schedules no extra events. */
    bool _gatherBlocked = false;
    std::uint64_t _gatherBlockCount = 0;
    std::array<unsigned, switchRadix> _rr{};

    std::array<XbarSwitch *, switchRadix> _down{};
    std::array<unsigned, switchRadix> _downPort{};
    std::array<InlineFunction<void()>, switchRadix>
        _spaceCallbacks;

    GatherTable _gather;
    CombineTable _combine;
};

} // namespace cenju

#endif // CENJU_NETWORK_XBAR_SWITCH_HH
