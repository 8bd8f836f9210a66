#include "protocol/home.hh"

#include "node/dsm_node.hh"
#include "sim/timing.hh"

namespace cenju
{

HomeModule::HomeModule(DsmNode &node)
    : _node(node),
      _dir(node.cfg().directoryScheme, node.numNodes()),
      _reqQueue("home.reqQueue",
                static_cast<std::size_t>(node.numNodes()) *
                    maxOutstanding)
{}

DirectoryEntry &
HomeModule::entryFor(Addr addr)
{
    return _dir.entry(addr_map::localBlock(addr));
}

void
HomeModule::enqueueInput(std::unique_ptr<CohPacket> pkt)
{
    _input.push_back(std::move(pkt));
    if (!_busy && _refused.empty())
        processNext();
}

void
HomeModule::processNext()
{
    if (_dispatchHolds) {
        // Fault hold window: input accumulates; the release pump
        // restarts dispatch.
        _busy = false;
        return;
    }
    if (!_refused.empty() || _input.empty()) {
        _busy = false;
        return;
    }
    _busy = true;
    std::unique_ptr<CohPacket> pkt = std::move(_input.front());
    _input.pop_front();
    if (!_node.cfg().deadlockAvoidance)
        _node.inputSpaceFreed();
    Tick charge = dispatch(*pkt);
    if (auto *hook = _node.checkHook()) {
        hook->onStep(check::StepKind::HomeDispatch, _node.id(),
                     pkt->addr);
    }
    _node.eq().scheduleAfter(charge, [this] { processNext(); });
}

void
HomeModule::faultReleaseDispatch()
{
    if (_dispatchHolds == 0)
        panic("home %u: unbalanced dispatch hold release",
              _node.id());
    if (--_dispatchHolds == 0 && !_busy && _refused.empty())
        processNext();
}

void
HomeModule::faultReleaseGather()
{
    if (_gatherHolds == 0)
        panic("home %u: unbalanced gather hold release", _node.id());
    if (--_gatherHolds > 0)
        return;
    if (!_gatherBusy && !_gatherWait.empty()) {
        WaitingMulticast wm = _gatherWait.front();
        _gatherWait.pop_front();
        startInvalidation(wm.addr, 0);
    }
}

void
HomeModule::outputSpaceAvailable()
{
    // Resend the refused packets in emit order before dispatch
    // resumes. Pop before sending: an accepted packet pumps the
    // node's output, which calls back in here.
    while (!_refused.empty()) {
        std::unique_ptr<CohPacket> p = std::move(_refused.front());
        _refused.pop_front();
        if (!_node.trySendFromHome(p)) {
            _refused.insert(0, std::move(p));
            return;
        }
    }
    if (!_busy)
        processNext();
}

void
HomeModule::emitAt(Tick t, std::unique_ptr<CohPacket> pkt)
{
    _node.eq().scheduleAfter(
        t, [this, p = std::move(pkt)]() mutable {
            // Ablation mode: the bounded output refuses when full.
            // Park the packet behind any refused earlier and stop
            // consuming input until the node drains (the Figure 9
            // home->network edge).
            if (!_refused.empty() || !_node.trySendFromHome(p))
                _refused.push_back(std::move(p));
        });
}

Tick
HomeModule::dispatch(CohPacket &pkt)
{
    switch (pkt.type) {
      case CohMsgType::ReadShared:
      case CohMsgType::ReadExclusive:
      case CohMsgType::Ownership:
        return handleRequest(pkt, 0);
      case CohMsgType::WriteBack:
        return handleWriteBack(pkt, 0);
      case CohMsgType::SlaveAck:
      case CohMsgType::SlaveData:
        return handleSlaveReply(pkt, 0);
      case CohMsgType::InvAck:
        return handleInvAck(pkt, 0);
      case CohMsgType::AtomicOp:
        return handleAtomic(pkt, 0);
      default:
        panic("home %u: bad message %s", _node.id(),
              nameOf(pkt.type));
    }
}

Tick
HomeModule::handleAtomic(const CohPacket &pkt, Tick t)
{
    // Directory bypass: one memory read-modify-write, one reply.
    // In-fabric combining means a 1024-requester storm reaches this
    // point only once per *merged* packet, so the home's serialized
    // occupancy scales with network stages, not participants.
    if (!_node.isCombinable(pkt.addr))
        panic("home %u: AtomicOp on non-combinable address %#llx",
              _node.id(),
              static_cast<unsigned long long>(pkt.addr));
    t += timing::memoryAccess;
    Addr off = addr_map::offset(pkt.addr);
    std::uint64_t old = _node.sharedMem().readWord(off);
    _node.sharedMem().writeWord(
        off, combineApply(pkt.combineOp, old, pkt.combineOperand));
    ++atomicsProcessed;

    auto reply = makeCohPacket(CohMsgType::AtomicReply, _node.id(),
                               pkt.src, pkt.addr, pkt.master,
                               pkt.mshr);
    reply->combinable = true;
    reply->combinedReply = true;
    reply->combineOp = pkt.combineOp;
    reply->combineOperand = old; // base value for decombining
    reply->combineKey = pkt.combineKey;
    reply->combineTicket = pkt.combineTicket;
    reply->combineCookie = pkt.combineCookie;
    emitAt(t, std::move(reply));
    return t;
}

Tick
HomeModule::handleRequest(const CohPacket &pkt, Tick t)
{
    t += timing::directoryAccess;
    DirectoryEntry &e = entryFor(pkt.addr);

    if (isPending(e.state())) {
        // Conflict. An ownership request is converted to
        // read-exclusive first (appendix): by the time it is served
        // the master's copy may be gone.
        return park(QueuedReq{pkt.type == CohMsgType::Ownership
                                  ? CohMsgType::ReadExclusive
                                  : pkt.type,
                              pkt.addr, pkt.master, pkt.mshr,
                              pkt.reqEpoch},
                    t);
    }

    return handleRequestAs(pkt.type, pkt.addr, pkt.master, pkt.mshr,
                           t);
}

Tick
HomeModule::park(const QueuedReq &req, Tick t)
{
    std::size_t n = _reqQueue.size();
    std::size_t pos = n;
    switch (_node.cfg().protocol) {
      case ProtocolKind::Nack:
        ++nacksSent;
        emitAt(t, makeCohPacket(CohMsgType::Nack, _node.id(),
                                req.master, req.addr, req.master,
                                req.mshr));
        return t;
      case ProtocolKind::Queuing:
        break;
      case ProtocolKind::PhasePriority:
        // Stable sort by epoch: in front of the first parked request
        // from a later phase, FIFO among equal epochs.
        for (std::size_t i = 0; i < n; ++i) {
            if (req.epoch < _reqQueue.items()[i].epoch) {
                pos = i;
                break;
            }
        }
        break;
    }
    Addr old_head = n != 0 ? _reqQueue.front().addr : 0;
    t += timing::memoryQueueAccess;
    _reqQueue.insertAt(pos, req);
    ++requestsQueued;
    queueWaitDepth.sample(static_cast<double>(_reqQueue.size()));
    if (_node.cfg().injectBug == ProtoBug::SkipReservation)
        return t;
    if (n == 0) {
        // The request sits at the top of the queue: mark its block
        // so the completing reply triggers the scan.
        entryFor(req.addr).setReservation(true);
    } else if (pos == 0 && old_head != req.addr) {
        // It overtook the old head and waits on a different block:
        // the reservation bit sits on the head's block only, so it
        // moves with the head.
        entryFor(old_head).setReservation(false);
        entryFor(req.addr).setReservation(true);
    }
    return t;
}

Tick
HomeModule::handleRequestAs(CohMsgType type, Addr addr,
                            NodeId master, std::uint8_t mshr,
                            Tick t)
{
    DirectoryEntry &e = entryFor(addr);
    NodeMap &map = e.map();
    unsigned n = _node.numNodes();
    std::uint64_t block = addr_map::localBlock(addr);
    ++requestsProcessed;

    auto grantWithData = [&](CohMsgType gtype, Tick at) {
        auto g = makeCohPacket(gtype, _node.id(), master, addr,
                               master, mshr);
        g->hasData = true;
        g->data = _node.sharedMem().readBlock(block);
        g->sizeBytes = CohPacket::wireSize(true);
        emitAt(at, std::move(g));
    };

    switch (type) {
      case CohMsgType::ReadShared:
        if (map.empty() || map.isOnly(master, n)) {
            // C or D with no (other) sharer: grant exclusive.
            e.setState(MemState::Dirty);
            map.setOnly(master);
            t += timing::memoryAccess;
            grantWithData(CohMsgType::GrantExclusive, t);
            return t;
        }
        if (e.state() == MemState::Clean) {
            if (_node.cfg().injectBug != ProtoBug::DropSharer)
                map.add(master);
            t += timing::memoryAccess;
            grantWithData(CohMsgType::GrantShared, t);
            return t;
        }
        {
            // Dirty at another node: forward to the owner.
            NodeId owner = map.decode(n).first();
            e.setState(MemState::PendingShared);
            _pending[addr] =
                PendingOp{CohMsgType::ReadShared, master, mshr,
                          PendingOp::Wait::SlaveReply, 0, false};
            auto f = makeCohPacket(CohMsgType::FwdReadShared,
                                   _node.id(), owner, addr, master,
                                   mshr);
            emitAt(t, std::move(f));
            return t;
        }

      case CohMsgType::ReadExclusive:
        if (map.empty() || map.isOnly(master, n)) {
            e.setState(MemState::Dirty);
            map.setOnly(master);
            t += timing::memoryAccess;
            grantWithData(CohMsgType::GrantModified, t);
            return t;
        }
        if (e.state() == MemState::Clean) {
            e.setState(MemState::PendingExclusive);
            _pending[addr] =
                PendingOp{CohMsgType::ReadExclusive, master, mshr,
                          PendingOp::Wait::GatherAck, 0, false};
            return startInvalidation(addr, t);
        }
        {
            NodeId owner = map.decode(n).first();
            e.setState(MemState::PendingExclusive);
            _pending[addr] =
                PendingOp{CohMsgType::ReadExclusive, master, mshr,
                          PendingOp::Wait::SlaveReply, 0, false};
            auto f = makeCohPacket(CohMsgType::FwdReadExclusive,
                                   _node.id(), owner, addr, master,
                                   mshr);
            emitAt(t, std::move(f));
            return t;
        }

      case CohMsgType::Ownership:
        if (e.state() == MemState::Clean && map.contains(master)) {
            if (map.containsOther(master, n)) {
                e.setState(MemState::PendingInvalidate);
                _pending[addr] =
                    PendingOp{CohMsgType::Ownership, master, mshr,
                              PendingOp::Wait::GatherAck, 0, false};
                return startInvalidation(addr, t);
            }
            // Sole sharer: grant ownership with no data transfer.
            e.setState(MemState::Dirty);
            map.setOnly(master);
            auto g = makeCohPacket(CohMsgType::GrantOwnership,
                                   _node.id(), master, addr, master,
                                   mshr);
            emitAt(t, std::move(g));
            return t;
        }
        // The master lost its copy while the request travelled
        // (invalidated by a racing writer): serve data instead.
        return handleRequestAs(CohMsgType::ReadExclusive, addr,
                               master, mshr, t);

      default:
        panic("home %u: handleRequestAs(%s)", _node.id(),
              nameOf(type));
    }
}

Tick
HomeModule::startInvalidation(Addr addr, Tick t)
{
    DirectoryEntry &e = entryFor(addr);
    PendingOp &op = _pending.at(addr);
    unsigned n = _node.numNodes();

    NodeSet decoded = e.map().decode(n);
    NodeSet real = decoded;
    real.erase(op.master);
    unsigned real_count = real.count();
    if (real_count == 0)
        panic("home %u: invalidation with no targets", _node.id());

    if (real_count == 1 && _node.cfg().useMulticast) {
        // Paper section 4.1: a single target uses a singlecast
        // message and a plain (ungathered) reply.
        ++invalidationUnicasts;
        op.wait = PendingOp::Wait::SerialAcks;
        op.acksLeft = 1;
        auto inv = makeCohPacket(CohMsgType::Invalidate, _node.id(),
                                 real.first(), addr, op.master,
                                 op.mshr);
        emitAt(t, std::move(inv));
        return t;
    }

    if (!_node.cfg().useMulticast) {
        // Ablation: serial unicasts, one controller occupancy each
        // (the paper's estimated 184 us @ 1024 sharers behaviour).
        op.wait = PendingOp::Wait::SerialAcks;
        op.acksLeft = real_count;
        unsigned i = 0;
        real.forEach([&](NodeId v) {
            auto inv = makeCohPacket(CohMsgType::Invalidate,
                                     _node.id(), v, addr, op.master,
                                     op.mshr);
            emitAt(t + i * timing::unicastInvSendOccupancy,
                   std::move(inv));
            ++i;
        });
        invalidationUnicasts += real_count;
        t += static_cast<Tick>(real_count) *
             timing::unicastInvSendOccupancy;
        return t;
    }

    // Multicast path: the destination specification mirrors the
    // directory structure exactly (paper section 3.2), so it may
    // include the master — slaves filter invalidations whose master
    // field names themselves. Replies are gathered; one gather may
    // be outstanding per home (10-bit identifier = home id).
    op.wait = PendingOp::Wait::GatherAck;
    op.usesGatherUnit = true;
    if (_gatherBusy || _gatherHolds) {
        ++gatherWaits;
        _gatherWait.push_back(WaitingMulticast{addr});
        return t;
    }
    _gatherBusy = true;

    // Up to four represented nodes go as pointers, more as a
    // bit-pattern. Re-encoding a Cenju map's decoded set gives back
    // that set; another scheme's (ablation A3) may widen, and the
    // delivered superset all ack.
    DestSpec spec;
    if (decoded.count() <= 4) {
        spec = DestSpec::pointers(decoded.toVector());
    } else {
        BitPattern p;
        decoded.forEach([&p](NodeId v) { p.add(v); });
        spec = DestSpec::pattern(p);
        decoded = p.decode(n);
    }

    // cenju-lint: allow(A003): one allocation per invalidation
    // round, shared read-only by every sibling ack it fans into.
    auto group = std::make_shared<const NodeSet>(decoded);
    auto inv = makeCohPacket(CohMsgType::Invalidate, _node.id(),
                             _node.id() /* overwritten below */,
                             addr, op.master, op.mshr);
    inv->dest = spec;
    inv->ackGathered = true;
    inv->ackGatherId = static_cast<std::uint16_t>(_node.id());
    inv->ackGatherGroup = group;
    ++invalidationMulticasts;
    emitAt(t, std::move(inv));
    return t;
}

Tick
HomeModule::handleWriteBack(const CohPacket &pkt, Tick t)
{
    t += timing::directoryAccess + timing::memoryAccess;
    ++writebacksProcessed;
    DirectoryEntry &e = entryFor(pkt.addr);
    _node.sharedMem().writeBlock(addr_map::localBlock(pkt.addr),
                                 pkt.data);
    if (e.state() == MemState::Dirty) {
        if (!e.map().contains(pkt.src))
            panic("home %u: WB from %u but dirty owner differs",
                  _node.id(), pkt.src);
        e.setState(MemState::Clean);
        e.map().clear();
    }
    // A writeback is processed even while the block is pending and
    // completes no pending op, so no queue scan happens here.
    return t;
}

Tick
HomeModule::handleSlaveReply(const CohPacket &pkt, Tick t)
{
    auto it = _pending.find(pkt.addr);
    if (it == _pending.end() ||
        it->second.wait != PendingOp::Wait::SlaveReply) {
        panic("home %u: stray slave reply for %llx", _node.id(),
              (unsigned long long)pkt.addr);
    }
    PendingOp op = it->second;
    _pending.erase(it);

    if (pkt.type == CohMsgType::SlaveData) {
        _node.sharedMem().writeBlock(addr_map::localBlock(pkt.addr),
                                     pkt.data);
    }
    t += timing::memoryAccess;

    DirectoryEntry &e = entryFor(pkt.addr);
    auto g = makeCohPacket(CohMsgType::GrantShared, _node.id(),
                           op.master, pkt.addr, op.master, op.mshr);
    if (op.reqType == CohMsgType::ReadShared) {
        e.setState(MemState::Clean);
        e.map().add(op.master);
        g->type = CohMsgType::GrantShared;
    } else {
        e.setState(MemState::Dirty);
        e.map().setOnly(op.master);
        g->type = CohMsgType::GrantModified;
    }
    g->hasData = true;
    g->data =
        _node.sharedMem().readBlock(addr_map::localBlock(pkt.addr));
    g->sizeBytes = CohPacket::wireSize(true);
    emitAt(t, std::move(g));

    return afterReply(pkt.addr, t);
}

Tick
HomeModule::handleInvAck(const CohPacket &pkt, Tick t)
{
    t += timing::ackProcess;
    auto it = _pending.find(pkt.addr);
    if (it == _pending.end() ||
        it->second.wait == PendingOp::Wait::SlaveReply) {
        panic("home %u: stray invalidation ack for %llx",
              _node.id(), (unsigned long long)pkt.addr);
    }
    PendingOp &op = it->second;

    if (op.wait == PendingOp::Wait::SerialAcks) {
        if (op.acksLeft == 0)
            panic("home %u: surplus ack", _node.id());
        if (--op.acksLeft > 0)
            return t;
    }

    // Completion: all copies are gone.
    PendingOp done = op;
    _pending.erase(it);

    if (done.usesGatherUnit) {
        _gatherBusy = false;
        if (!_gatherWait.empty() && !_gatherHolds) {
            WaitingMulticast wm = _gatherWait.front();
            _gatherWait.pop_front();
            // Relaunch the parked invalidation round now.
            t = startInvalidation(wm.addr, t);
        }
    }

    DirectoryEntry &e = entryFor(pkt.addr);
    e.setState(MemState::Dirty);
    e.map().setOnly(done.master);

    if (done.reqType == CohMsgType::Ownership) {
        auto g = makeCohPacket(CohMsgType::GrantOwnership,
                               _node.id(), done.master, pkt.addr,
                               done.master, done.mshr);
        emitAt(t, std::move(g));
    } else {
        t += timing::memoryAccess;
        auto g = makeCohPacket(CohMsgType::GrantModified,
                               _node.id(), done.master, pkt.addr,
                               done.master, done.mshr);
        g->hasData = true;
        g->data = _node.sharedMem().readBlock(
            addr_map::localBlock(pkt.addr));
        g->sizeBytes = CohPacket::wireSize(true);
        emitAt(t, std::move(g));
    }

    return afterReply(pkt.addr, t);
}

Tick
HomeModule::afterReply(Addr addr, Tick t)
{
    DirectoryEntry &e = entryFor(addr);
    if (!e.reservation())
        return t;
    e.setReservation(false);
    if (_node.cfg().protocol == ProtocolKind::Nack)
        panic("home %u: reservation scan under nack", _node.id());
    // Serve parked requests head-first until one's block is still
    // pending (re-arm the reservation on it and stop) or the queue
    // drains.
    while (!_reqQueue.empty()) {
        DirectoryEntry &head = entryFor(_reqQueue.front().addr);
        if (isPending(head.state())) {
            head.setReservation(true);
            return t;
        }
        QueuedReq req = _reqQueue.pop();
        t += timing::memoryQueueAccess;
        t = handleRequestAs(req.type, req.addr, req.master, req.mshr,
                            t + timing::directoryAccess);
    }
    return t;
}

} // namespace cenju
