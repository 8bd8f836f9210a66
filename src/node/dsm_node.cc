#include "node/dsm_node.hh"

#include "sim/timing.hh"

namespace cenju
{

DsmNode::DsmNode(EventQueue &eq, Transport &net, NodeId id,
                 const ProtocolConfig &cfg)
    : _eq(eq), _net(net), _id(id), _cfg(cfg),
      _cache(cfg.cacheBytes), _master(*this), _home(*this),
      _slave(*this),
      _homeOutMem("home.outQueue",
                  static_cast<std::size_t>(net.numNodes()) *
                      maxOutstanding)
{
    _net.attach(id, this);
}

void
DsmNode::dispatch(std::unique_ptr<CohPacket> pkt)
{
    if (isGrant(pkt->type)) {
        Addr addr = pkt->addr;
        _master.handleGrant(*pkt);
        if (_checkHook) {
            _checkHook->onStep(check::StepKind::MasterGrant, _id,
                               addr);
        }
    } else if (isSlaveBound(pkt->type)) {
        _slave.enqueue(std::move(pkt));
    } else if (isHomeBound(pkt->type)) {
        _home.enqueueInput(std::move(pkt));
    } else {
        panic("node %u: unroutable message %s", _id,
              nameOf(pkt->type));
    }
}

void
DsmNode::sendFromMaster(std::unique_ptr<CohPacket> pkt)
{
    ++_sent;
    if (pkt->dest.kind() == DestSpec::Kind::Unicast &&
        pkt->dest.unicastDest() == _id) {
        _eq.scheduleAfter(
            0, [this, p = std::move(pkt)]() mutable {
                dispatch(std::move(p));
            });
        return;
    }
    _masterOut.push_back(std::move(pkt));
    pumpOutput();
}

bool
DsmNode::trySendFromSlave(std::unique_ptr<CohPacket> &pkt)
{
    if (pkt->dest.kind() == DestSpec::Kind::Unicast &&
        pkt->dest.unicastDest() == _id && !pkt->gathered) {
        ++_sent;
        _eq.scheduleAfter(
            0, [this, p = std::move(pkt)]() mutable {
                dispatch(std::move(p));
            });
        return true;
    }
    if (_slaveOut)
        return false;
    // Per-address ordering interlock: a WriteBack for the same block
    // still parked in the master output queue must reach the home
    // before this reply. The appendix resolves the writeback race by
    // memory order (the WB is processed even while the block is
    // pending), which assumes node-to-home FIFO per address; the
    // round-robin pump below would otherwise let a slave ack
    // overtake the WB when the injection queue is congested, and
    // the home would serve the stale memory copy.
    for (const auto &p : _masterOut) {
        const auto *coh = dynamic_cast<const CohPacket *>(p.get());
        if (coh && coh->type == CohMsgType::WriteBack &&
            blockBase(coh->addr) == blockBase(pkt->addr)) {
            return false;
        }
    }
    ++_sent;
    _slaveOut = std::move(pkt);
    pumpOutput();
    return true;
}

bool
DsmNode::trySendFromHome(std::unique_ptr<CohPacket> &pkt)
{
    if (pkt->dest.kind() == DestSpec::Kind::Unicast &&
        pkt->dest.unicastDest() == _id) {
        ++_sent;
        _eq.scheduleAfter(
            0, [this, p = std::move(pkt)]() mutable {
                dispatch(std::move(p));
            });
        return true;
    }
    if (_homeOutHw.size() < _cfg.homeHwOutBuffer) {
        ++_sent;
        _homeOutHw.push_back(std::move(pkt));
        pumpOutput();
        return true;
    }
    if (!_cfg.deadlockAvoidance)
        return false;
    // Section 3.4: overflow to the main-memory queue. For an
    // invalidation round the hardware stores one message plus the
    // node map, which is exactly what the packet carries.
    ++_sent;
    _homeOutMem.push(std::move(pkt));
    return true;
}

void
DsmNode::pumpOutput()
{
    if (_outputHolds)
        return; // fault hold window; re-pumped on release
    for (;;) {
        // Round-robin over the four sources.
        PacketPtr *slot = nullptr;
        bool user = false;
        for (unsigned k = 0; k < 4 && !slot && !user; ++k) {
            unsigned src = (_outRR + k) % 4;
            switch (src) {
              case 0:
                if (!_masterOut.empty()) {
                    slot = &_masterOut.front();
                    _outRR = src + 1;
                }
                break;
              case 1:
                if (_slaveOut) {
                    slot = &_slaveOut;
                    _outRR = src + 1;
                }
                break;
              case 2:
                if (!_homeOutHw.empty()) {
                    slot = &_homeOutHw.front();
                    _outRR = src + 1;
                }
                break;
              case 3:
                if (!_userOut.empty()) {
                    user = true;
                    _outRR = src + 1;
                }
                break;
            }
        }
        if (user) {
            if (!_net.tryInject(std::move(_userOut.front())))
                return;
            _userOut.pop_front();
            continue;
        }
        if (!slot)
            return;

        if (!_net.tryInject(std::move(*slot)))
            return; // injection queue full; retried on callback

        // Post-send bookkeeping for whichever source just drained.
        if (slot == &_slaveOut) {
            _slaveOut.reset();
            _slave.outputSpaceAvailable();
        } else if (!_homeOutHw.empty() &&
                   slot == &_homeOutHw.front()) {
            _homeOutHw.pop_front();
            if (!_homeOutMem.empty()) {
                // Promote one parked message from main memory.
                _eq.scheduleAfter(
                    timing::memoryQueueAccess, [this] {
                        if (!_homeOutMem.empty() &&
                            _homeOutHw.size() <
                                _cfg.homeHwOutBuffer) {
                            _homeOutHw.push_back(_homeOutMem.pop());
                            pumpOutput();
                        }
                    });
            }
            _home.outputSpaceAvailable();
        } else {
            _masterOut.pop_front();
            // A drained writeback may unblock a slave reply held by
            // the per-address ordering interlock.
            _slave.outputSpaceAvailable();
        }
    }
}

bool
DsmNode::reserveDelivery(const Packet &pkt)
{
    shard::assertOnOwnerShard(_shard, _id);
    const auto *coh = dynamic_cast<const CohPacket *>(&pkt);
    if (!coh)
        return true; // user-level (message passing) traffic

    if (isGrant(coh->type))
        return true; // bounded by the master's MSHRs

    if (isSlaveBound(coh->type)) {
        if (_cfg.deadlockAvoidance)
            return true; // memory overflow absorbs everything
        if (_slave.backlog() + _slaveReserved <
            _cfg.slaveHwBuffer) {
            ++_slaveReserved;
            return true;
        }
        return false;
    }

    if (isHomeBound(coh->type)) {
        if (_cfg.deadlockAvoidance)
            return true;
        if (_home.inputBacklog() + _homeReserved <
            _cfg.slaveHwBuffer) {
            ++_homeReserved;
            return true;
        }
        return false;
    }
    return true;
}

void
DsmNode::sendUser(PacketPtr pkt)
{
    if (pkt->dest.kind() == DestSpec::Kind::Unicast &&
        pkt->dest.unicastDest() == _id) {
        _eq.scheduleAfter(
            0, [this, p = std::move(pkt)]() mutable {
                if (!_userHandler)
                    panic("node %u: no user handler", _id);
                _userHandler(std::move(p));
            });
        return;
    }
    _userOut.push_back(std::move(pkt));
    pumpOutput();
}

void
DsmNode::deliver(PacketPtr pkt)
{
    shard::assertOnOwnerShard(_shard, _id);
    auto *coh = dynamic_cast<CohPacket *>(pkt.get());
    if (!coh) {
        if (!_userHandler) {
            panic("node %u: non-coherence packet without a handler",
                  _id);
        }
        _userHandler(std::move(pkt));
        return;
    }
    if (!_cfg.deadlockAvoidance) {
        if (isSlaveBound(coh->type) && _slaveReserved)
            --_slaveReserved;
        else if (isHomeBound(coh->type) && _homeReserved)
            --_homeReserved;
    }
    pkt.release();
    dispatch(std::unique_ptr<CohPacket>(coh));
}

void
DsmNode::injectSpaceAvailable()
{
    pumpOutput();
}

void
DsmNode::inputSpaceFreed()
{
    if (!_cfg.deadlockAvoidance)
        _net.deliveryRetry(_id);
}

} // namespace cenju
