#include "protocol/slave.hh"

#include "node/dsm_node.hh"
#include "sim/timing.hh"

namespace cenju
{

SlaveModule::SlaveModule(DsmNode &node)
    : _node(node),
      _mem("slave.inQueue",
           static_cast<std::size_t>(node.numNodes()) *
               maxOutstanding)
{}

bool
SlaveModule::hwSpace() const
{
    return _hw.size() < _node.cfg().slaveHwBuffer;
}

void
SlaveModule::enqueue(std::unique_ptr<CohPacket> pkt)
{
    // FIFO across the two buffers: once anything sits in the memory
    // overflow, later arrivals must queue behind it.
    if (_mem.empty() && hwSpace()) {
        _hw.push_back(std::move(pkt));
    } else {
        if (!_node.cfg().deadlockAvoidance) {
            panic("slave %u: overflow without deadlock avoidance",
                  _node.id());
        }
        ++memOverflowed;
        _mem.push(std::move(pkt));
    }
    if (!_busy && !_stalledReply)
        processNext();
}

void
SlaveModule::processNext()
{
    if (_stalledReply)
        return;
    std::unique_ptr<CohPacket> pkt;
    Tick extra = 0;
    if (!_hw.empty()) {
        pkt = std::move(_hw.front());
        _hw.pop_front();
        if (!_node.cfg().deadlockAvoidance)
            _node.inputSpaceFreed();
    } else if (!_mem.empty()) {
        pkt = _mem.pop();
        extra = timing::memoryQueueAccess;
    } else {
        _busy = false;
        return;
    }
    _busy = true;
    serve(std::move(pkt), extra);
}

void
SlaveModule::serve(std::unique_ptr<CohPacket> pkt, Tick extra)
{
    CacheLine *line = _node.cache().lookup(pkt->addr);
    NodeId home = pkt->src;

    auto reply = makeCohPacket(CohMsgType::SlaveAck, _node.id(),
                               home, pkt->addr, pkt->master,
                               pkt->mshr);

    switch (pkt->type) {
      case CohMsgType::Invalidate:
        ++invalidationsReceived;
        // The multicast destination mirrored the directory structure
        // and so includes the requesting master itself; its own copy
        // must survive the ownership upgrade. Acknowledge without
        // invalidating.
        if (line && pkt->master != _node.id())
            line->state = CacheState::Invalid;
        reply->type = CohMsgType::InvAck;
        if (pkt->ackGathered) {
            reply->gathered = true;
            reply->gatherId = pkt->ackGatherId;
            reply->gatherGroup = pkt->ackGatherGroup;
        }
        break;

      case CohMsgType::UpdateWrite:
        // Update-protocol extension: apply the word to the local
        // replica (memory and any cached copy), then acknowledge;
        // the acks gather back to the writer.
        ++updatesReceived;
        _node.privateMem().writeWord(addr_map::offset(pkt->addr),
                                     pkt->data.w[0]);
        if (line) {
            line->data.w[(pkt->addr & (blockBytes - 1)) / 8] =
                pkt->data.w[0];
        }
        reply->type = CohMsgType::UpdateAck;
        reply->dest = DestSpec::unicast(pkt->master);
        if (pkt->ackGathered) {
            reply->gathered = true;
            reply->gatherId = pkt->ackGatherId;
            reply->gatherGroup = pkt->ackGatherGroup;
        }
        break;

      case CohMsgType::FwdReadShared:
        ++forwardsReceived;
        if (line && line->state == CacheState::Modified) {
            line->state = CacheState::Shared;
            reply->type = CohMsgType::SlaveData;
            reply->hasData = true;
            reply->data = line->data;
            reply->sizeBytes = CohPacket::wireSize(true);
        } else if (line && line->state == CacheState::Exclusive) {
            line->state = CacheState::Shared;
        }
        // Shared/absent copies just acknowledge (the silent-drop
        // and writeback races land here).
        break;

      case CohMsgType::FwdReadExclusive:
        ++forwardsReceived;
        if (line && line->state == CacheState::Modified) {
            line->state = CacheState::Invalid;
            reply->type = CohMsgType::SlaveData;
            reply->hasData = true;
            reply->data = line->data;
            reply->sizeBytes = CohPacket::wireSize(true);
        } else if (line) {
            line->state = CacheState::Invalid;
        }
        break;

      default:
        panic("slave %u: bad message %s", _node.id(),
              nameOf(pkt->type));
    }

    if (auto *hook = _node.checkHook()) {
        hook->onStep(check::StepKind::SlaveServe, _node.id(),
                     pkt->addr);
    }

    // Update applications go straight to the memory controller (the
    // extension's "third-level cache in main memory"), cheaper than
    // a full slave-engine pass.
    Tick occupancy = pkt->type == CohMsgType::UpdateWrite
        ? timing::memoryQueueAccess
        : timing::slaveOccupancy;
    _node.eq().scheduleAfter(
        occupancy + extra,
        [this, r = std::move(reply)]() mutable {
            emitReply(std::move(r));
        });
}

void
SlaveModule::emitReply(std::unique_ptr<CohPacket> pkt)
{
    if (!_node.trySendFromSlave(pkt)) {
        // Output register occupied: stall (the slave -> network
        // dependency the section 3.4 analysis keeps).
        _stalledReply = std::move(pkt);
        return;
    }
    processNext();
}

void
SlaveModule::outputSpaceAvailable()
{
    if (!_stalledReply) {
        if (!_busy)
            processNext();
        return;
    }
    if (_node.trySendFromSlave(_stalledReply)) {
        _stalledReply.reset();
        processNext();
    }
}

} // namespace cenju
