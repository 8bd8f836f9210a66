#include "network/network.hh"

#include "sim/logging.hh"

namespace cenju
{

Network::Network(EventQueue &eq, const NetConfig &cfg)
    : _eq(eq), _cfg(cfg), _topo(cfg.numNodes),
      _injectors(cfg.numNodes), _endpoints(cfg.numNodes, nullptr),
      _combineParked(cfg.numNodes)
{
    unsigned rows = _topo.rowsPerStage();
    _switches.reserve(static_cast<std::size_t>(_topo.stages()) *
                      rows);
    for (unsigned s = 0; s < _topo.stages(); ++s) {
        for (unsigned r = 0; r < rows; ++r) {
            _switches.push_back(std::make_unique<XbarSwitch>(
                _eq, *this, _topo, _cfg, s, r));
        }
    }

    // Wire stage s outputs to stage s+1 inputs, and register the
    // static back-pressure callbacks (input space -> upstream
    // output re-arbitration).
    for (unsigned s = 0; s + 1 < _topo.stages(); ++s) {
        for (unsigned r = 0; r < rows; ++r) {
            XbarSwitch &up = switchAt(s, r);
            for (unsigned p = 0; p < switchRadix; ++p) {
                auto [drow, dport] = _topo.link(s, r, p);
                XbarSwitch &down = switchAt(s + 1, drow);
                up.connectDownstream(p, &down, dport);
                down.onInputSpace(dport, [&up, p] {
                    // Wake the upstream output so a head blocked on
                    // our full buffers is retried.
                    up.scheduleArbitrate(p);
                });
            }
        }
    }

    // Injection wiring: node n feeds one stage-0 input port.
    for (NodeId n = 0; n < _cfg.numNodes; ++n) {
        auto [row, port] = _topo.injectPoint(n);
        _injectors[n].swRow = row;
        _injectors[n].swPort = port;
        switchAt(0, row).onInputSpace(port, [this, n] {
            Injector &inj = _injectors[n];
            if (inj.waitingSpace) {
                inj.waitingSpace = false;
                _eq.scheduleAfter(0, [this, n] { pumpInjector(n); });
            }
        });
    }
}

Network::~Network() = default;

void
Network::attach(NodeId n, Endpoint *ep)
{
    if (n >= _cfg.numNodes)
        fatal("attach: node %u out of range", n);
    _endpoints[n] = ep;
}

unsigned
Network::injectCapacity(NodeId n) const
{
    unsigned cap = _cfg.injectQueueCapacity;
    if (_faultHook)
        cap = _faultHook->injectQueueCapacity(n, cap);
    return cap;
}

void
Network::faultInjectRetry(NodeId n)
{
    Injector &inj = _injectors[n];
    if (inj.wasFull &&
        inj.q.size() < injectCapacity(n)) {
        inj.wasFull = false;
        if (_endpoints[n])
            _endpoints[n]->injectSpaceAvailable();
    }
}

bool
Network::tryInject(PacketPtr &&pkt)
{
    NodeId n = pkt->src;
    if (n >= _cfg.numNodes)
        panic("inject from bad node %u", n);
    if (pkt->combinable && pkt->combinedReply) {
        // Combined replies ride the switches' dedicated return
        // channel (descendReply): accepted unconditionally, charged
        // the injection overhead, then walked down stage by stage.
        pkt->injectTick = _eq.now();
        pkt->packetId = _nextPacketId++;
        ++injected;
        int top = static_cast<int>(_topo.stages()) - 1;
        _eq.scheduleAfter(_cfg.injectLatency,
                          [this, top, p = std::move(pkt)]() mutable {
                              descendReply(std::move(p), top);
                          });
        return true;
    }
    Injector &inj = _injectors[n];
    if (inj.q.size() >= injectCapacity(n)) {
        inj.wasFull = true;
        return false;
    }
    pkt->injectTick = _eq.now();
    pkt->packetId = _nextPacketId++;
    if (pkt->combinable) {
        // The ticket identifies this (possibly merged-into) request
        // to the combining records it leaves behind; the rep packet
        // accumulates in place, so the ticket survives to the home.
        pkt->combineTicket = pkt->packetId;
    }
    ++injected;
    inj.q.push_back(std::move(pkt));
    if (!inj.busy && !inj.waitingSpace)
        pumpInjector(n);
    return true;
}

void
Network::pumpInjector(NodeId n)
{
    Injector &inj = _injectors[n];
    if (inj.busy || inj.q.empty())
        return;

    XbarSwitch &sw0 = switchAt(0, inj.swRow);
    Packet &head = *inj.q.front();
    if (!sw0.reserve(inj.swPort, head)) {
        inj.waitingSpace = true;
        return;
    }

    PacketPtr pkt = std::move(inj.q.front());
    inj.q.pop_front();
    inj.busy = true;

    Tick occ = _cfg.portOccupancy(pkt->sizeBytes);
    _eq.scheduleAfter(
        _cfg.injectLatency,
        [&sw0, port = inj.swPort, p = std::move(pkt)]() mutable {
            sw0.commit(port, std::move(p));
        });
    _eq.scheduleAfter(std::max(occ, _cfg.injectLatency),
                      [this, n] {
                          Injector &i2 = _injectors[n];
                          i2.busy = false;
                          pumpInjector(n);
                          if (i2.wasFull &&
                              i2.q.size() <
                                  injectCapacity(n)) {
                              i2.wasFull = false;
                              if (_endpoints[n])
                                  _endpoints[n]
                                      ->injectSpaceAvailable();
                          }
                      });
}

void
Network::descendReply(PacketPtr pkt, int stage)
{
    NodeId requester = pkt->dest.unicastDest();
    if (stage < 0) {
        _eq.scheduleAfter(
            _cfg.ejectLatency,
            [this, requester, p = std::move(pkt)]() mutable {
                deliverCombinedReply(requester, std::move(p));
            });
        return;
    }
    // The reply retraces the request's forward route in reverse;
    // every merge the surviving request performed was recorded at a
    // switch on that route, keyed by the absorbed packet's ticket.
    unsigned s = static_cast<unsigned>(stage);
    CombineTable &table =
        switchAt(s, _topo.row(requester, pkt->src, s)).combineTable();
    Tick delay = _cfg.stageLatency +
                 _cfg.gatherMergeLatency *
                     Tick(table.matches(pkt->combineTicket));
    table.take(pkt->combineTicket, [&](const CombineRecord &r) {
        ++combineDecombined;
        // The absorbed request joined this switch at stage s, so its
        // reply continues from stage s-1 along its own route.
        _eq.scheduleAfter(delay,
                          [this, stage,
                           p = decombine(*pkt, r)]() mutable {
                              descendReply(std::move(p), stage - 1);
                          });
    });
    _eq.scheduleAfter(delay,
                      [this, stage, p = std::move(pkt)]() mutable {
                          descendReply(std::move(p), stage - 1);
                      });
}

void
Network::deliverCombinedReply(NodeId n, PacketPtr pkt)
{
    if (!ejectReserve(n, *pkt)) {
        // Parked until the endpoint frees space (deliveryRetry) or
        // a delivery-hold fault window closes.
        _combineParked[n].push_back(std::move(pkt));
        return;
    }
    ejectDeliver(n, std::move(pkt));
}

bool
Network::ejectReserve(NodeId n, const Packet &pkt)
{
    if (!_endpoints[n])
        panic("eject to unattached node %u", n);
    // A delivery-hold fault window makes the endpoint ineligible:
    // the final-stage output blocks in FIFO order (per-path order
    // preserved) and the injector retries when the window closes.
    if (_faultHook && _faultHook->deliveryHeld(n))
        return false;
    return _endpoints[n]->reserveDelivery(pkt);
}

void
Network::ejectDeliver(NodeId n, PacketPtr pkt)
{
    ++delivered;
    latency.sample(
        static_cast<double>(_eq.now() - pkt->injectTick));
    _endpoints[n]->deliver(std::move(pkt));
    if (_checkHook) {
        _checkHook->onStep(check::StepKind::NetworkDeliver, n, 0);
    }
}

void
Network::deliveryRetry(NodeId n)
{
    while (!_combineParked[n].empty()) {
        if (!ejectReserve(n, *_combineParked[n].front()))
            break;
        PacketPtr p = std::move(_combineParked[n].front());
        _combineParked[n].pop_front();
        ejectDeliver(n, std::move(p));
    }
    // Exactly one final-stage output ejects to n (Topology::ejectNode).
    switchAt(_topo.stages() - 1, n / switchRadix)
        .unblockEject(n % switchRadix);
}

} // namespace cenju
