#include "transport/software.hh"

#include "shard/router.hh"
#include "sim/logging.hh"

namespace cenju
{

SoftwareTransport::SoftwareTransport(EventQueue &eq,
                                     const NetConfig &cfg,
                                     bool software_collectives)
    : _eq(eq), _cfg(cfg), _softwareCollectives(software_collectives),
      _injectors(cfg.numNodes), _ports(cfg.numNodes),
      _endpoints(cfg.numNodes, nullptr),
      _combiners(software_collectives ? cfg.numNodes : 0)
{
    // Charge the multistage fabric's uncontended path so the two
    // fabrics agree exactly when there is no contention (the Table 2
    // unicast latencies): what remains is the contention + fanout
    // cost this backend removes or restructures.
    _pipeLatency = _cfg.injectLatency +
                   static_cast<Tick>(
                       NetConfig::defaultStages(_cfg.numNodes)) *
                       _cfg.stageLatency +
                   _cfg.ejectLatency;
}

bool
SoftwareTransport::bindShards(shard::Router *router)
{
    if (!router)
        panic("bindShards(nullptr)");
    _router = router;
    return true;
}

EventQueue &
SoftwareTransport::queueOf(NodeId n)
{
    return _router ? _router->queueFor(n) : _eq;
}

Tick
SoftwareTransport::nowOf(NodeId n)
{
    return queueOf(n).now();
}

NetStats
SoftwareTransport::netStats() const
{
    NetStats s;
    for (const Injector &inj : _injectors) {
        s.injected += inj.injected;
        s.multicastCopies += inj.multicastCopies;
    }
    for (const DeliveryPort &p : _ports) {
        s.delivered += p.delivered;
        s.gatherAbsorbed += p.gatherAbsorbed;
        s.gatherForwarded += p.gatherForwarded;
        s.latency.merge(p.latency);
    }
    return s;
}

void
SoftwareTransport::attach(NodeId n, Endpoint *ep)
{
    if (n >= _cfg.numNodes)
        fatal("attach: node %u out of range", n);
    _endpoints[n] = ep;
}

Tick
SoftwareTransport::occupancyOf(const Packet &pkt) const
{
    return _cfg.portOccupancyHeader +
           static_cast<Tick>(pkt.sizeBytes *
                             _cfg.portOccupancyPerByte);
}

unsigned
SoftwareTransport::effectiveInjectCapacity(NodeId n) const
{
    unsigned cap = _cfg.injectQueueCapacity;
    if (_faultHook)
        cap = _faultHook->injectQueueCapacity(n, cap);
    return cap;
}

unsigned
SoftwareTransport::injectCapacity(NodeId n) const
{
    return effectiveInjectCapacity(n);
}

void
SoftwareTransport::faultInjectRetry(NodeId n)
{
    Injector &inj = _injectors[n];
    if (inj.wasFull && inj.q.size() < effectiveInjectCapacity(n)) {
        inj.wasFull = false;
        if (_endpoints[n])
            _endpoints[n]->injectSpaceAvailable();
    }
}

bool
SoftwareTransport::tryInject(PacketPtr &&pkt)
{
    NodeId n = pkt->src;
    if (n >= _cfg.numNodes)
        panic("inject from bad node %u", n);
    Injector &inj = _injectors[n];
    if (pkt->combinable && !pkt->combinedReply &&
        _softwareCollectives) {
        // Direct's software combining tree: the request enters the
        // origin's own combiner and climbs toward the home hop by
        // hop, merging with same-key requests along the way
        // (docs/ARCHITECTURE.md). Accepted unconditionally — the
        // combiner is the node's software send buffer.
        pkt->injectTick = nowOf(n);
        pkt->packetId = (static_cast<std::uint64_t>(n) << 40) |
                        inj.nextPacketId++;
        pkt->combineTicket = pkt->packetId;
        if (pkt->combineHome == invalidNode)
            pkt->combineHome = pkt->dest.unicastDest();
        ++inj.injected;
        swCombineAccept(n, std::move(pkt));
        return true;
    }
    if (pkt->combinable && pkt->combinedReply &&
        !_softwareCollectives) {
        // Ideal's hardware combining primitive: the reply leaves
        // the home with no injector occupancy and fans out to every
        // merged requester at once.
        pkt->injectTick = nowOf(n);
        pkt->packetId = (static_cast<std::uint64_t>(n) << 40) |
                        inj.nextPacketId++;
        ++inj.injected;
        hwCombineReply(n, std::move(pkt));
        return true;
    }
    if (inj.q.size() >= effectiveInjectCapacity(n)) {
        inj.wasFull = true;
        return false;
    }
    pkt->injectTick = nowOf(n);
    // Per-source id sequence: unique machine-wide (source in the
    // high bits) without any cross-shard coordination.
    pkt->packetId = (static_cast<std::uint64_t>(n) << 40) |
                    inj.nextPacketId++;
    if (pkt->combinable && pkt->combineTicket == 0) {
        pkt->combineTicket = pkt->packetId;
        if (pkt->combineHome == invalidNode)
            pkt->combineHome = pkt->dest.unicastDest();
    }
    ++inj.injected;
    inj.q.push_back(std::move(pkt));
    pumpInjector(n);
    return true;
}

void
SoftwareTransport::pumpInjector(NodeId n)
{
    Injector &inj = _injectors[n];
    while (!inj.busy) {
        if (inj.fanout.empty()) {
            if (inj.q.empty())
                return;
            PacketPtr pkt = std::move(inj.q.front());
            inj.q.pop_front();
            if (_softwareCollectives &&
                pkt->dest.kind() != DestSpec::Kind::Unicast) {
                // Sender-side multicast loop: one point-to-point
                // packet per member, each paying its own port
                // occupancy below.
                const NodeSet &dsts = decodedDest(*pkt);
                unsigned members = dsts.count();
                if (members > 1)
                    inj.multicastCopies += members - 1;
                dsts.forEach([&inj, &pkt](NodeId t) {
                    PacketPtr c = pkt->clone();
                    c->dest = DestSpec::unicast(t);
                    c->decodedDestValid = false;
                    inj.fanout.push_back(std::move(c));
                });
                continue; // members == 0: packet silently dropped
            }
            inj.fanout.push_back(std::move(pkt));
        }
        PacketPtr pkt = std::move(inj.fanout.front());
        inj.fanout.pop_front();
        sendOne(inj, n, std::move(pkt));
    }
}

void
SoftwareTransport::routeArrival(NodeId src, NodeId dst, Tick when,
                                PacketPtr pkt)
{
    EventQueue::Callback cb = [this, dst,
                               p = std::move(pkt)]() mutable {
        arrive(dst, std::move(p));
    };
    if (_router->shardOf(dst) == _router->shardOf(src))
        _router->queueFor(src).schedule(when, std::move(cb));
    else
        _router->crossSchedule(src, dst, when, std::move(cb));
}

void
SoftwareTransport::sendOne(Injector &inj, NodeId n, PacketPtr pkt)
{
    inj.busy = true;
    Tick occ = occupancyOf(*pkt);

    if (!_softwareCollectives &&
        pkt->dest.kind() != DestSpec::Kind::Unicast) {
        // Hardware multicast without contention: one injection, the
        // fabric replicates, all members receive simultaneously.
        const NodeSet &dsts = decodedDest(*pkt);
        unsigned members = dsts.count();
        if (members > 1)
            inj.multicastCopies += members - 1;
        if (_router) {
            // Sharded: per-member arrival events so each member's
            // delivery runs on its owning shard. Scheduled in
            // NodeSet order from this one send, so the recovered
            // global order — and with it the step digest — matches
            // the sequential single-event fanout exactly.
            Tick when = nowOf(n) + _pipeLatency;
            unsigned seen = 0;
            dsts.forEach([&](NodeId t) {
                if (++seen == members)
                    routeArrival(n, t, when, std::move(pkt));
                else
                    routeArrival(n, t, when, pkt->clone());
            });
        } else {
            _eq.scheduleAfter(
                _pipeLatency, [this, p = std::move(pkt)]() mutable {
                    const NodeSet &ds = decodedDest(*p);
                    unsigned m = ds.count();
                    unsigned seen = 0;
                    ds.forEach([&](NodeId t) {
                        if (++seen == m)
                            arrive(t, std::move(p));
                        else
                            arrive(t, p->clone());
                    });
                });
        }
    } else {
        NodeId dst = pkt->dest.unicastDest();
        if (_router) {
            routeArrival(n, dst, nowOf(n) + _pipeLatency,
                         std::move(pkt));
        } else {
            _eq.scheduleAfter(_pipeLatency,
                              [this, dst,
                               p = std::move(pkt)]() mutable {
                                  arrive(dst, std::move(p));
                              });
        }
    }

    queueOf(n).scheduleAfter(
        std::max(occ, _cfg.injectLatency), [this, n] {
            Injector &i2 = _injectors[n];
            i2.busy = false;
            pumpInjector(n);
            if (i2.wasFull &&
                i2.q.size() < effectiveInjectCapacity(n)) {
                i2.wasFull = false;
                if (_endpoints[n])
                    _endpoints[n]->injectSpaceAvailable();
            }
        });
}

void
SoftwareTransport::arrive(NodeId dst, PacketPtr pkt)
{
    DeliveryPort &port = _ports[dst];
    if (pkt->combinable) {
        if (_softwareCollectives) {
            if (pkt->combinedReply) {
                swReplyArrive(dst, std::move(pkt));
                return;
            }
            if (dst != pkt->combineHome) {
                // Interior tree hop: fold into this node's
                // combiner; only the merged aggregate climbs on.
                swCombineAccept(dst, std::move(pkt));
                return;
            }
            // Request at the home: deliver normally below.
        } else if (!pkt->combinedReply &&
                   hwCombineArrive(dst, pkt)) {
            return; // merged or parked at the combining station
        }
    }
    if (pkt->gathered) {
        // Software reply merging at the destination: the same
        // semantics the switch gather tables provide in-network,
        // performed here so the protocol sees one merged reply on
        // any backend.
        if (!pkt->gatherGroup)
            panic("gathered packet without a gather group");
        std::uint32_t key = pkt->gatherId;
        auto it = port.gathers.find(key);
        if (it == port.gathers.end()) {
            unsigned expected = pkt->gatherGroup->count();
            if (expected == 0)
                panic("gather with an empty group");
            it = port.gathers.emplace(key, GatherMerge{expected})
                     .first;
        }
        if (--it->second.remaining > 0) {
            ++port.gatherAbsorbed;
            return;
        }
        port.gathers.erase(it);
        ++port.gatherForwarded;
    }
    port.q.push_back(std::move(pkt));
    pumpDelivery(dst);
}

void
SoftwareTransport::pumpDelivery(NodeId dst)
{
    DeliveryPort &port = _ports[dst];
    if (port.pumping)
        return;
    port.pumping = true;
    while (!port.q.empty() && !port.busy) {
        if (_faultHook && _faultHook->deliveryHeld(dst))
            break; // injector wakes us via deliveryRetry()
        Endpoint *ep = _endpoints[dst];
        if (!ep)
            panic("deliver to unattached node %u", dst);
        if (!ep->reserveDelivery(*port.q.front()))
            break; // endpoint calls deliveryRetry() on free space
        PacketPtr pkt = std::move(port.q.front());
        port.q.pop_front();
        Tick occ = occupancyOf(*pkt);
        ++port.delivered;
        port.latency.sample(
            static_cast<double>(nowOf(dst) - pkt->injectTick));
        ep->deliver(std::move(pkt));
        if (_checkHook)
            _checkHook->onStep(check::StepKind::NetworkDeliver,
                               dst, 0);
        if (_softwareCollectives) {
            // Software reply counting is not free: the processor
            // handles arrivals one at a time.
            port.busy = true;
            queueOf(dst).scheduleAfter(occ, [this, dst] {
                _ports[dst].busy = false;
                pumpDelivery(dst);
            });
        }
    }
    port.pumping = false;
}

void
SoftwareTransport::deliveryRetry(NodeId n)
{
    pumpDelivery(n);
}

// --- combinable atomics (ROADMAP item 4) --------------------------

void
SoftwareTransport::deliverLocal(NodeId x, PacketPtr pkt)
{
    _ports[x].q.push_back(std::move(pkt));
    pumpDelivery(x);
}

bool
SoftwareTransport::hwCombineArrive(NodeId dst, PacketPtr &pkt)
{
    // One request per key is outstanding at the endpoint; the next
    // becomes pending, and every later arrival folds into it in
    // hardware. A hot-spot storm therefore costs two home visits
    // regardless of how many requesters pile in.
    DeliveryPort &port = _ports[dst];
    auto it = port.stations.find(pkt->combineKey);
    if (it == port.stations.end()) {
        HwStation st;
        st.outstandingTicket = pkt->combineTicket;
        port.stations.emplace(pkt->combineKey, std::move(st));
        return false; // deliver; the station marks it outstanding
    }
    HwStation &st = it->second;
    if (!st.pending) {
        st.pending = std::move(pkt);
        return true;
    }
    Packet &rep = *st.pending;
    if (rep.combineOp != pkt->combineOp) {
        // Mixed ops on one key: don't combine, deliver serially.
        return false;
    }
    CombineRecord r;
    r.repTicket = rep.combineTicket;
    r.absorbedTicket = pkt->combineTicket;
    r.absorbedSrc = pkt->src;
    r.absorbedCookie = pkt->combineCookie;
    r.prefix = rep.combineOperand;
    r.op = rep.combineOp;
    st.records.push_back(r);
    rep.combineOperand = combineApply(rep.combineOp,
                                      rep.combineOperand,
                                      pkt->combineOperand);
    pkt.reset();
    return true;
}

void
SoftwareTransport::hwCombineReply(NodeId home, PacketPtr pkt)
{
    DeliveryPort &port = _ports[home];
    auto it = port.stations.find(pkt->combineKey);
    const std::uint64_t replyTicket = pkt->combineTicket;

    // Expand the reply against the station's records: every merge
    // this reply answers spawns the absorbed requester's reply with
    // the recorded prefix folded onto the base value.
    std::vector<PacketPtr> outs;
    outs.push_back(std::move(pkt));
    if (it != port.stations.end()) {
        HwStation &st = it->second;
        for (std::size_t i = 0; i < outs.size(); ++i) {
            std::uint64_t t = outs[i]->combineTicket;
            for (std::size_t k = 0; k < st.records.size();) {
                if (st.records[k].repTicket != t) {
                    ++k;
                    continue;
                }
                CombineRecord r = st.records[k];
                st.records.erase(
                    st.records.begin() +
                    static_cast<std::ptrdiff_t>(k));
                PacketPtr sub = outs[i]->clone();
                sub->dest = DestSpec::unicast(r.absorbedSrc);
                sub->decodedDestValid = false;
                sub->combineOperand = combineApply(
                    r.op, outs[i]->combineOperand, r.prefix);
                sub->combineTicket = r.absorbedTicket;
                sub->combineCookie = r.absorbedCookie;
                outs.push_back(std::move(sub));
            }
        }
    }

    // All replies leave at once: the hardware primitive charges no
    // injector occupancy, only the uncontended pipe.
    Tick when = nowOf(home) + _pipeLatency;
    for (PacketPtr &out : outs) {
        NodeId dst = out->dest.unicastDest();
        if (_router) {
            routeArrival(home, dst, when, std::move(out));
        } else {
            _eq.scheduleAfter(_pipeLatency,
                              [this, dst,
                               p = std::move(out)]() mutable {
                                  arrive(dst, std::move(p));
                              });
        }
    }

    // Release the pending aggregate into the endpoint (it is the
    // new outstanding request); drop the station when idle. Only
    // the outstanding request's own reply releases anything — a
    // mixed-op request that was delivered serially past the
    // station replies too, and acting on it would double-release.
    if (it != port.stations.end() &&
        it->second.outstandingTicket == replyTicket) {
        if (it->second.pending) {
            it->second.outstandingTicket =
                it->second.pending->combineTicket;
            PacketPtr next = std::move(it->second.pending);
            queueOf(home).scheduleAfter(
                0, [this, home, p = std::move(next)]() mutable {
                    deliverLocal(home, std::move(p));
                });
        } else {
            if (!it->second.records.empty())
                panic("combining station retired with %zu live "
                      "records", it->second.records.size());
            port.stations.erase(it);
        }
    }
}

NodeId
SoftwareTransport::swParent(NodeId x, NodeId home) const
{
    // Radix-4 tree (matching the fabric radix) rooted at the home:
    // relabel so the home is 0, take the heap parent, map back.
    unsigned n = _cfg.numNodes;
    unsigned r = (x + n - home) % n;
    if (r == 0)
        return home;
    unsigned pr = (r - 1) / switchRadix;
    return static_cast<NodeId>((pr + home) % n);
}

void
SoftwareTransport::swCombineAccept(NodeId x, PacketPtr pkt)
{
    SwCombiner &c = _combiners[x];
    std::uint64_t key = pkt->combineKey;
    auto it = c.pending.find(key);
    if (it != c.pending.end()) {
        Packet &rep = *it->second;
        if (rep.combineOp != pkt->combineOp) {
            // Mixed ops on one key: skip the combiner and climb
            // the tree alone. Still a real tree hop: re-address to
            // the parent (forwarding with the original dest would
            // loop back here) and record the return path so the
            // reply retraces to whoever handed us the packet.
            c.fwdFrom[pkt->combineTicket] = pkt->src;
            pkt->dest = DestSpec::unicast(
                swParent(x, pkt->combineHome));
            pkt->decodedDestValid = false;
            swForward(x, std::move(pkt));
            return;
        }
        CombineRecord r;
        r.repTicket = rep.combineTicket;
        r.absorbedTicket = pkt->combineTicket;
        r.absorbedSrc = pkt->src;
        r.absorbedCookie = pkt->combineCookie;
        r.prefix = rep.combineOperand;
        r.op = rep.combineOp;
        c.records.push_back(r);
        rep.combineOperand = combineApply(rep.combineOp,
                                          rep.combineOperand,
                                          pkt->combineOperand);
        return; // absorbed
    }
    c.pendingFrom[key] = pkt->src;
    c.pending.emplace(key, std::move(pkt));
    queueOf(x).scheduleAfter(_cfg.swCombineWindow,
                             [this, x, key] {
                                 swCombineFlush(x, key);
                             });
}

void
SoftwareTransport::swCombineFlush(NodeId x, std::uint64_t key)
{
    SwCombiner &c = _combiners[x];
    auto it = c.pending.find(key);
    if (it == c.pending.end())
        return; // already flushed
    PacketPtr agg = std::move(it->second);
    c.pending.erase(it);
    c.fwdFrom[agg->combineTicket] = c.pendingFrom[key];
    c.pendingFrom.erase(key);
    agg->dest = DestSpec::unicast(swParent(x, agg->combineHome));
    agg->decodedDestValid = false;
    swForward(x, std::move(agg));
}

void
SoftwareTransport::swForward(NodeId x, PacketPtr pkt)
{
    // A tree hop is a real message: it pays this node's injector
    // occupancy and the full pipe. The combiner is the node's
    // software send buffer, so the injection-queue capacity does
    // not apply (back-pressure already happened at the origin).
    pkt->src = x;
    Injector &inj = _injectors[x];
    ++inj.injected;
    inj.q.push_back(std::move(pkt));
    pumpInjector(x);
}

void
SoftwareTransport::swReplyArrive(NodeId x, PacketPtr pkt)
{
    SwCombiner &c = _combiners[x];
    std::uint64_t t = pkt->combineTicket;

    // Decombine the merges this node performed for that aggregate.
    for (std::size_t k = 0; k < c.records.size();) {
        if (c.records[k].repTicket != t) {
            ++k;
            continue;
        }
        CombineRecord r = c.records[k];
        c.records.erase(c.records.begin() +
                        static_cast<std::ptrdiff_t>(k));
        PacketPtr sub = pkt->clone();
        sub->dest = DestSpec::unicast(r.absorbedSrc);
        sub->decodedDestValid = false;
        sub->combineOperand =
            combineApply(r.op, pkt->combineOperand, r.prefix);
        sub->combineTicket = r.absorbedTicket;
        sub->combineCookie = r.absorbedCookie;
        if (r.absorbedSrc == x) {
            // This node's own request, absorbed here: complete it.
            deliverLocal(x, std::move(sub));
        } else {
            // Serialized through our injector: the software tree's
            // decombine cost, per child.
            swForward(x, std::move(sub));
        }
    }

    // Continue the descent: toward whoever handed us the aggregate,
    // or complete locally if it originated here.
    auto fit = c.fwdFrom.find(t);
    if (fit == c.fwdFrom.end()) {
        deliverLocal(x, std::move(pkt));
        return;
    }
    NodeId next = fit->second;
    c.fwdFrom.erase(fit);
    if (next == x) {
        deliverLocal(x, std::move(pkt));
    } else {
        pkt->dest = DestSpec::unicast(next);
        pkt->decodedDestValid = false;
        swForward(x, std::move(pkt));
    }
}

} // namespace cenju
