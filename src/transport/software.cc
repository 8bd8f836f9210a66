#include "transport/software.hh"

#include "shard/router.hh"
#include "sim/logging.hh"

namespace cenju
{

SoftwareTransport::SoftwareTransport(EventQueue &eq,
                                     const NetConfig &cfg,
                                     bool software_collectives)
    : _eq(eq), _cfg(cfg), _softwareCollectives(software_collectives),
      // Charge the multistage fabric's uncontended path so the two
      // fabrics agree exactly when there is no contention (the
      // Table 2 unicast latencies): what remains is the contention
      // + fanout cost this backend removes or restructures.
      _pipeLatency(cfg.traversal(NetConfig::defaultStages(cfg.numNodes))),
      _injectors(cfg.numNodes), _ports(cfg.numNodes),
      _endpoints(cfg.numNodes, nullptr),
      _combiners(software_collectives ? cfg.numNodes : 0)
{}

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
        s.gatherAbsorbed += p.gathers.absorbed.value();
        s.gatherForwarded += p.gathers.forwarded.value();
        s.combineMerged += p.combineMerged;
        s.combineDecombined += p.combineDecombined;
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

unsigned
SoftwareTransport::injectCapacity(NodeId n) const
{
    unsigned cap = _cfg.injectQueueCapacity;
    if (_faultHook)
        cap = _faultHook->injectQueueCapacity(n, cap);
    return cap;
}

void
SoftwareTransport::faultInjectRetry(NodeId n)
{
    Injector &inj = _injectors[n];
    if (inj.wasFull && inj.q.size() < injectCapacity(n)) {
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
    if (inj.q.size() >= injectCapacity(n)) {
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
                // occupancy below. An empty set sends nothing.
                inj.multicastCopies += fanOutUnicast(
                    *pkt, decodedDest(*pkt), [&inj](PacketPtr c) {
                        inj.fanout.push_back(std::move(c));
                    });
                continue;
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
    if (!_router || _router->shardOf(dst) == _router->shardOf(src))
        queueOf(src).schedule(when, std::move(cb));
    else
        _router->crossSchedule(src, dst, when, std::move(cb));
}

void
SoftwareTransport::sendOne(Injector &inj, NodeId n, PacketPtr pkt)
{
    inj.busy = true;
    Tick occ = _cfg.portOccupancy(pkt->sizeBytes);
    Tick when = nowOf(n) + _pipeLatency;

    if (pkt->dest.kind() == DestSpec::Kind::Unicast) {
        NodeId dst = pkt->dest.unicastDest();
        routeArrival(n, dst, when, std::move(pkt));
    } else {
        // Hardware multicast without contention (ideal; direct
        // expanded its multicasts in pumpInjector): one injection,
        // the fabric replicates, and every member's copy arrives at
        // the same tick, one event each in NodeSet order.
        const NodeSet &dsts = decodedDest(*pkt);
        unsigned members = dsts.count();
        if (members > 1)
            inj.multicastCopies += members - 1;
        unsigned seen = 0;
        dsts.forEach([&](NodeId t) {
            if (++seen == members)
                routeArrival(n, t, when, std::move(pkt));
            else
                routeArrival(n, t, when, pkt->clone());
        });
    }

    queueOf(n).scheduleAfter(
        std::max(occ, _cfg.injectLatency), [this, n] {
            Injector &i2 = _injectors[n];
            i2.busy = false;
            pumpInjector(n);
            if (i2.wasFull && i2.q.size() < injectCapacity(n)) {
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
    // Software reply merging at the destination: the same semantics
    // the switch gather tables provide in-network, performed here so
    // the protocol sees one merged reply on any backend.
    if (pkt->gathered && !port.gathers.arrive(*pkt))
        return; // absorbed
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
        Tick occ = _cfg.portOccupancy(pkt->sizeBytes);
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
    st.log.add(combineMerge(rep, *pkt));
    ++port.combineMerged;
    pkt.reset();
    return true;
}

void
SoftwareTransport::hwCombineReply(NodeId home, PacketPtr pkt)
{
    DeliveryPort &port = _ports[home];
    auto it = port.stations.find(pkt->combineKey);
    const std::uint64_t replyTicket = pkt->combineTicket;

    // All replies leave at once: the hardware primitive charges no
    // injector occupancy, only the uncontended pipe. The reply goes
    // first, then the reply of every requester the station merged
    // into it, rebuilt from the reply (which its arrival event owns
    // and keeps alive meanwhile). An absorbed request never reaches
    // the station again, so its reply answers no further merge.
    Tick when = nowOf(home) + _pipeLatency;
    const Packet &reply = *pkt;
    routeArrival(home, reply.dest.unicastDest(), when, std::move(pkt));
    if (it != port.stations.end()) {
        it->second.log.take(replyTicket, [&](const CombineRecord &r) {
            ++port.combineDecombined;
            routeArrival(home, r.absorbedSrc, when,
                         decombine(reply, r));
        });
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
            if (it->second.log.size() != 0)
                panic("combining station retired with %zu live "
                      "records", it->second.log.size());
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
        Packet &rep = *it->second.agg;
        if (rep.combineOp != pkt->combineOp) {
            // Mixed ops on one key: skip the combiner and climb
            // the tree alone. Still a real tree hop: re-address to
            // the parent (forwarding with the original dest would
            // loop back here) and record the return path so the
            // reply retraces to whoever handed us the packet.
            c.fwdFrom[pkt->combineTicket] = pkt->src;
            pkt->readdress(swParent(x, pkt->combineHome));
            swForward(x, std::move(pkt));
            return;
        }
        c.log.add(combineMerge(rep, *pkt));
        ++_ports[x].combineMerged;
        return; // absorbed
    }
    NodeId from = pkt->src;
    c.pending.emplace(key, SwCombiner::Pending{std::move(pkt), from});
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
    PacketPtr agg = std::move(it->second.agg);
    c.fwdFrom[agg->combineTicket] = it->second.from;
    c.pending.erase(it);
    agg->readdress(swParent(x, agg->combineHome));
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
    c.log.take(t, [&](const CombineRecord &r) {
        ++_ports[x].combineDecombined;
        if (r.absorbedSrc == x) {
            // This node's own request, absorbed here: complete it.
            deliverLocal(x, decombine(*pkt, r));
        } else {
            // Serialized through our injector: the software tree's
            // decombine cost, per child.
            swForward(x, decombine(*pkt, r));
        }
    });

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
        pkt->readdress(next);
        swForward(x, std::move(pkt));
    }
}

} // namespace cenju
