#include "network/xbar_switch.hh"

#include <bit>

#include "network/network.hh"

namespace cenju
{

XbarSwitch::XbarSwitch(EventQueue &eq, Network &net,
                       const Topology &topo, const NetConfig &cfg,
                       unsigned stage, unsigned row)
    : _eq(eq), _net(net), _topo(topo), _cfg(cfg), _stage(stage),
      _row(row), _lastStage(stage + 1 == topo.stages()),
      _gather(cfg.gatherTableEntries),
      _combine(cfg.combineTableEntries)
{}

std::uint8_t
XbarSwitch::targetPorts(const Packet &pkt) const
{
    if (pkt.dest.kind() == DestSpec::Kind::Unicast)
        return std::uint8_t(
            1u << _topo.routeDigit(pkt.dest.unicastDest(), _stage));
    // Multicast: cover every output port whose reachable range holds
    // a member of the decoded destination set (the in-switch
    // calculation of paper Figure 5a).
    const NodeSet &dests = _net.decodedDest(pkt);
    std::uint8_t outs = 0;
    for (unsigned p = 0; p < switchRadix; ++p) {
        auto [first, end] = _topo.reachRange(_stage, _row, p);
        if (dests.intersectsRange(first, end))
            outs |= std::uint8_t(1u << p);
    }
    return outs;
}

std::uint8_t
XbarSwitch::gatherWaitPattern(const Packet &pkt) const
{
    // Input ports via which members of the gather group reach this
    // switch on their unique route to the gather destination. The
    // real machine carries these patterns in the message, computed
    // at the replying node from the same information.
    if (!pkt.gatherGroup)
        panic("gathered packet without gather group");
    NodeId home = pkt.dest.unicastDest();
    std::uint8_t pattern = 0;
    pkt.gatherGroup->forEach([&](NodeId v) {
        if (_topo.row(v, home, _stage) == _row)
            pattern |= std::uint8_t(1u << _topo.routeDigit(v, _stage));
    });
    return pattern;
}

bool
XbarSwitch::reserve(unsigned in_port, const Packet &pkt)
{
    std::uint8_t outs = targetPorts(pkt);
    if (!outs)
        panic("packet with no target ports at stage %u", _stage);
    unsigned cap = _cfg.xbCapacity;
    if (auto *h = _net.faultHook())
        cap = h->xbCapacity(_stage, _row, cap);
    for (unsigned m = outs; m; m &= m - 1) {
        if (_xb[in_port][std::countr_zero(m)].used() >= cap)
            return false;
    }
    if (pkt.gathered && !_gather.canReserve(pkt.gatherId)) {
        // The table slot is held by a different in-flight gather
        // (identifier aliasing on an undersized table): exert
        // back-pressure instead of corrupting the merge. The
        // upstream retries through its input-space callback when
        // the owning gather forwards.
        _gatherBlocked = true;
        ++_gatherBlockCount;
        return false;
    }
    for (unsigned m = outs; m; m &= m - 1)
        ++_xb[in_port][std::countr_zero(m)].reserved;
    if (pkt.gathered)
        _gather.reserveArrival(pkt.gatherId);
    return true;
}

void
XbarSwitch::commit(unsigned in_port, PacketPtr pkt)
{
    std::uint8_t outs = targetPorts(*pkt);

    if (pkt->gathered) {
        if (!std::has_single_bit(outs))
            panic("gathered packet with port mask %#x",
                  unsigned(outs));
        std::uint8_t pattern = gatherWaitPattern(*pkt);
        std::uint16_t gid = pkt->gatherId;
        auto res = _gather.absorb(gid, in_port, pattern);
        if (res == GatherTable::Result::Absorbed) {
            ++_net.gatherAbsorbed;
            releaseReservation(in_port, outs);
            return; // merged away
        }
        ++_net.gatherForwarded;
        // Forward the last reply after the merge overhead.
        unsigned out = std::countr_zero(outs);
        _eq.scheduleAfter(_cfg.gatherMergeLatency,
                          [this, in_port, out,
                           p = std::move(pkt)]() mutable {
                              enqueue(in_port, out, std::move(p));
                          });
        if (_gatherBlocked && _gather.slotFree(gid)) {
            // A slot just freed while some upstream was blocked on
            // table occupancy. Any input may have been the blocked
            // one, so wake them all; they simply re-reserve.
            _gatherBlocked = false;
            for (unsigned in = 0; in < switchRadix; ++in)
                inputSpaceFreed(in);
        }
        return;
    }

    // In-network combining (ROADMAP item 4): a combinable request
    // arriving while a same-key request is still queued for the
    // same output folds into it and dies here.
    if (pkt->combinable && !pkt->combinedReply &&
        std::has_single_bit(outs) && tryCombine(in_port, outs, pkt)) {
        return; // merged away
    }

    // Multicast replication: clone into each covered output's
    // crosspoint buffer in ascending port order; the original moves
    // into the highest one.
    unsigned last = std::bit_width(outs) - 1u;
    for (unsigned m = outs & ~(1u << last); m; m &= m - 1) {
        ++_net.multicastCopies;
        enqueue(in_port, std::countr_zero(m), pkt->clone());
    }
    enqueue(in_port, last, std::move(pkt));
}

bool
XbarSwitch::tryCombine(unsigned in_port, std::uint8_t outs,
                       PacketPtr &pkt)
{
    // The queued packet is the representative: it is ahead in the
    // buffer and reaches the home first, which realizes the
    // "rep first, then absorbed" serialization the decombine
    // algebra assumes (transport/combine.hh). The ALU fold fits in
    // the stage's header time, so no extra latency is charged; only
    // the reply descent pays gatherMergeLatency per decombine.
    unsigned out = std::countr_zero(outs);
    for (unsigned in = 0; in < switchRadix; ++in) {
        for (PacketPtr &q : _xb[in][out].q) {
            if (!q->combinable || q->combinedReply ||
                q->combineKey != pkt->combineKey ||
                q->combineOp != pkt->combineOp ||
                q->dest.unicastDest() != pkt->dest.unicastDest())
                continue;
            if (!_combine.canRecord(pkt->combineTicket)) {
                // Record slot aliased by a live merge: skip the
                // combine and forward uncombined. Never wrong,
                // only slower (net_config.hh).
                ++_net.combineSkipped;
                return false;
            }
            _combine.store(combineMerge(*q, *pkt));
            ++_net.combineMerged;
            pkt.reset();
            releaseReservation(in_port, outs);
            return true;
        }
    }
    return false;
}

void
XbarSwitch::enqueue(unsigned in, unsigned out, PacketPtr pkt)
{
    Fifo &f = _xb[in][out];
    if (f.reserved == 0)
        panic("commit without reservation (%u,%u)", in, out);
    --f.reserved;
    f.q.push_back(std::move(pkt));
    scheduleArbitrate(out);
}

void
XbarSwitch::releaseReservation(unsigned in, std::uint8_t outs)
{
    for (unsigned m = outs; m; m &= m - 1) {
        unsigned o = std::countr_zero(m);
        Fifo &f = _xb[in][o];
        if (f.reserved == 0)
            panic("release without reservation (%u,%u)", in, o);
        --f.reserved;
    }
    inputSpaceFreed(in);
}

void
XbarSwitch::inputSpaceFreed(unsigned in)
{
    if (_spaceCallbacks[in])
        _spaceCallbacks[in]();
}

void
XbarSwitch::scheduleArbitrate(unsigned out)
{
    if (_arbScheduled[out])
        return;
    _arbScheduled[out] = true;
    _eq.scheduleAfter(0, [this, out] {
        _arbScheduled[out] = false;
        arbitrate(out);
    });
}

void
XbarSwitch::arbitrate(unsigned out)
{
    if (_busy[out] || _blockedEject[out])
        return;
    if (auto *h = _net.faultHook();
        h && h->switchOutputHeld(_stage, _row, out))
        return; // stall window; faultKick() re-arbitrates


    for (unsigned k = 0; k < switchRadix; ++k) {
        unsigned in = (_rr[out] + k) % switchRadix;
        Fifo &f = _xb[in][out];
        if (f.q.empty())
            continue;

        Packet &head = *f.q.front();
        if (_lastStage) {
            NodeId node = _topo.ejectNode(_row, out);
            if (!_net.ejectReserve(node, head)) {
                // All traffic on this output targets the same
                // endpoint, so the whole port blocks until the
                // endpoint frees space (Network::deliveryRetry).
                _blockedEject[out] = true;
                return;
            }
            PacketPtr pkt = std::move(f.q.front());
            f.q.pop_front();
            _rr[out] = (in + 1) % switchRadix;
            Tick occ = _cfg.portOccupancy(pkt->sizeBytes);
            _busy[out] = true;
            _eq.scheduleAfter(occ, [this, out] {
                _busy[out] = false;
                arbitrate(out);
            });
            _eq.scheduleAfter(
                _cfg.stageLatency + _cfg.ejectLatency,
                [this, node, p = std::move(pkt)]() mutable {
                    _net.ejectDeliver(node, std::move(p));
                });
            inputSpaceFreed(in);
            return;
        }

        XbarSwitch *down = _down[out];
        unsigned dport = _downPort[out];
        if (!down->reserve(dport, head)) {
            // Wired retry: the downstream fires our input-space
            // callback when (dport, *) space frees.
            return;
        }
        PacketPtr pkt = std::move(f.q.front());
        f.q.pop_front();
        _rr[out] = (in + 1) % switchRadix;
        Tick occ = _cfg.portOccupancy(pkt->sizeBytes);
        _busy[out] = true;
        _eq.scheduleAfter(occ, [this, out] {
            _busy[out] = false;
            arbitrate(out);
        });
        _eq.scheduleAfter(
            _cfg.stageLatency,
            [down, dport, p = std::move(pkt)]() mutable {
                down->commit(dport, std::move(p));
            });
        inputSpaceFreed(in);
        return;
    }
}

void
XbarSwitch::unblockEject(unsigned out)
{
    if (!_blockedEject[out])
        return;
    _blockedEject[out] = false;
    scheduleArbitrate(out);
}

void
XbarSwitch::faultKick()
{
    for (unsigned in = 0; in < switchRadix; ++in)
        inputSpaceFreed(in);
    for (unsigned out = 0; out < switchRadix; ++out)
        scheduleArbitrate(out);
}

} // namespace cenju
