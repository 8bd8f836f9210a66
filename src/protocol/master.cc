#include "protocol/master.hh"

#include "node/dsm_node.hh"
#include "sim/timing.hh"

namespace cenju
{

MasterModule::MasterModule(DsmNode &node) : _node(node) {}

AccessClass
MasterModule::classify(Addr addr) const
{
    if (!addr_map::isShared(addr))
        return AccessClass::Private;
    return addr_map::homeNode(addr) == _node.id()
        ? AccessClass::SharedLocal
        : AccessClass::SharedRemote;
}

bool
MasterModule::canIssue() const
{
    for (const Mshr &m : _mshrs) {
        if (!m.busy)
            return true;
    }
    return false;
}

unsigned
MasterModule::outstanding() const
{
    unsigned n = 0;
    for (const Mshr &m : _mshrs)
        n += m.busy;
    return n;
}

std::vector<Addr>
MasterModule::outstandingBlocks() const
{
    std::vector<Addr> blocks;
    for (const Mshr &m : _mshrs) {
        if (m.busy)
            blocks.push_back(m.blockAddr);
    }
    return blocks;
}

AccessClass
MasterModule::countAccess(Addr addr)
{
    AccessClass cls = classify(addr);
    switch (cls) {
      case AccessClass::Private:
        ++accPrivate;
        break;
      case AccessClass::SharedLocal:
        ++accSharedLocal;
        break;
      case AccessClass::SharedRemote:
        ++accSharedRemote;
        break;
    }
    return cls;
}

void
MasterModule::load(Addr addr, LoadCallback done)
{
    AccessClass cls = countAccess(addr);
    if (cls == AccessClass::Private) {
        accessPrivate(addr, false, 0, std::move(done), nullptr);
        return;
    }

    CacheLine *line = _node.cache().lookup(addr);
    if (line) {
        ++cacheHits;
        _node.cache().touch(*line);
        std::uint64_t v =
            line->data.w[(addr & (blockBytes - 1)) / 8];
        _node.eq().scheduleAfter(
            timing::cacheHitLatency,
            [done = std::move(done), v]() mutable { done(v); });
        return;
    }
    ++cacheMisses;
    if (cls == AccessClass::SharedLocal)
        ++missSharedLocal;
    else
        ++missSharedRemote;
    missShared(addr, false, 0, std::move(done), nullptr,
               CohMsgType::ReadShared);
}

void
MasterModule::store(Addr addr, std::uint64_t value,
                    StoreCallback done)
{
    AccessClass cls = countAccess(addr);
    if (cls == AccessClass::Private) {
        if (_node.isReplicated(addr)) {
            updateStore(addr, value, std::move(done));
            return;
        }
        accessPrivate(addr, true, value, nullptr, std::move(done));
        return;
    }

    CacheLine *line = _node.cache().lookup(addr);
    if (line && (line->state == CacheState::Modified ||
                 line->state == CacheState::Exclusive)) {
        // E -> M is the silent MESI upgrade.
        ++cacheHits;
        line->state = CacheState::Modified;
        line->data.w[(addr & (blockBytes - 1)) / 8] = value;
        _node.cache().touch(*line);
        _node.eq().scheduleAfter(
            timing::cacheHitLatency,
            [done = std::move(done)]() mutable { done(); });
        return;
    }

    // Both the shared-hit upgrade (ownership request: no data
    // transfer needed) and the miss count as coherence misses,
    // matching the paper's "cache misses include store accesses to
    // shared cache blocks".
    ++cacheMisses;
    if (cls == AccessClass::SharedLocal)
        ++missSharedLocal;
    else
        ++missSharedRemote;

    if (line && line->state == CacheState::Shared) {
        missShared(addr, true, value, nullptr, std::move(done),
                   CohMsgType::Ownership);
    } else {
        missShared(addr, true, value, nullptr, std::move(done),
                   CohMsgType::ReadExclusive);
    }
}

void
MasterModule::accessPrivate(Addr addr, bool is_store,
                            std::uint64_t value, LoadCallback ldone,
                            StoreCallback sdone)
{
    Cache &cache = _node.cache();
    CacheLine *line = cache.lookup(addr);

    if (line) {
        ++cacheHits;
        cache.touch(*line);
        if (is_store) {
            line->state = CacheState::Modified;
            line->data.w[(addr & (blockBytes - 1)) / 8] = value;
            _node.eq().scheduleAfter(
                timing::cacheHitLatency,
                [sdone = std::move(sdone)]() mutable { sdone(); });
        } else {
            std::uint64_t v =
                line->data.w[(addr & (blockBytes - 1)) / 8];
            _node.eq().scheduleAfter(
                timing::cacheHitLatency,
                [ldone = std::move(ldone), v]() mutable { ldone(v); });
        }
        return;
    }

    ++cacheMisses;
    ++missPrivate;
    // Table 2 row (a): masterOverhead + memoryAccess = 470 ns.
    Tick lat = timing::masterOverhead + timing::memoryAccess;
    _node.eq().scheduleAfter(
        lat,
        [this, addr, is_store, value, ldone = std::move(ldone),
         sdone = std::move(sdone)]() mutable {
            Block data = _node.privateMem().readBlock(
                addr >> blockShift);
            CacheLine *fill =
                install(blockBase(addr), data,
                        is_store ? CacheState::Modified
                                 : CacheState::Exclusive);
            std::uint64_t v = 0;
            unsigned word = (addr & (blockBytes - 1)) / 8;
            if (fill) {
                if (is_store)
                    fill->data.w[word] = value;
                else
                    v = fill->data.w[word];
            } else {
                // Uncached fallback (every way pinned): operate on
                // memory directly.
                if (is_store)
                    _node.privateMem().writeWord(
                        addr_map::offset(addr), value);
                else
                    v = _node.privateMem().readWord(
                        addr_map::offset(addr));
            }
            if (is_store)
                sdone();
            else
                ldone(v);
        });
}

void
MasterModule::updateStore(Addr addr, std::uint64_t value,
                          StoreCallback done)
{
    ++updateStores;
    _updates.push_back(PendingUpdate{addr, value, std::move(done)});
    if (!_updateBusy)
        launchUpdate();
}

void
MasterModule::launchUpdate()
{
    if (_updates.empty()) {
        _updateBusy = false;
        return;
    }
    _updateBusy = true;
    PendingUpdate &u = _updates.front();

    // Apply locally: the word in memory, and the cached copy if
    // present (the local replica is always current).
    _node.privateMem().writeWord(addr_map::offset(u.addr), u.value);
    if (CacheLine *line = _node.cache().lookup(u.addr)) {
        line->data.w[(u.addr & (blockBytes - 1)) / 8] = u.value;
        if (line->state == CacheState::Exclusive ||
            line->state == CacheState::Modified) {
            // Replicated data is never written back as shared
            // blocks; keep the line clean so eviction is silent.
            line->state = CacheState::Shared;
        }
    }

    unsigned n = _node.numNodes();
    if (n == 1) {
        _node.eq().scheduleAfter(
            timing::masterOverhead,
            [this] { handleUpdateAck(); });
        return;
    }

    // Multicast the word to every replica (including ourselves:
    // the destination pattern mirrors a full-machine map and our
    // own slave simply re-applies the same value); acknowledgements
    // gather back to this node.
    BitPattern everyone;
    for (NodeId v = 0; v < n; ++v)
        everyone.add(v);
    // cenju-lint: allow(A003): one allocation per update round,
    // amortized over the full-machine fanout it is shared across.
    auto group = std::make_shared<const NodeSet>(
        everyone.decode(n));

    auto pkt = makeCohPacket(CohMsgType::UpdateWrite, _node.id(),
                             _node.id(), u.addr, _node.id(), 0);
    pkt->dest = DestSpec::pattern(everyone);
    pkt->data.w[0] = u.value;
    pkt->sizeBytes = 24;
    pkt->ackGathered = true;
    // Update gathers use the upper half of the gather-id space so
    // they never collide with a home's invalidation gather on the
    // same node (the extension doubles the switch table).
    pkt->ackGatherId =
        static_cast<std::uint16_t>(n + _node.id());
    pkt->ackGatherGroup = group;
    _node.eq().scheduleAfter(
        timing::masterOverhead,
        [this, p = std::move(pkt)]() mutable {
            _node.sendFromMaster(std::move(p));
        });
}

void
MasterModule::handleUpdateAck()
{
    if (_updates.empty())
        panic("node %u: stray update ack", _node.id());
    PendingUpdate u = std::move(_updates.front());
    _updates.pop_front();
    u.done();
    launchUpdate();
}

void
MasterModule::atomicOp(Addr addr, CombineOp op,
                       std::uint64_t operand, LoadCallback done)
{
    if (!addr_map::isShared(addr) ||
        !_node.isCombinable(addr)) {
        panic("node %u: atomic %s on non-combinable %llx",
              _node.id(), nameOf(op),
              (unsigned long long)addr);
    }
    ++atomicOps;
    countAccess(addr);
    _atomics.push_back(
        PendingAtomic{addr, op, operand, std::move(done)});
    if (!_atomicBusy)
        launchAtomic();
}

void
MasterModule::launchAtomic()
{
    if (_atomics.empty()) {
        _atomicBusy = false;
        return;
    }
    _atomicBusy = true;
    PendingAtomic &a = _atomics.front();

    NodeId home = addr_map::homeNode(a.addr);
    auto pkt = makeCohPacket(CohMsgType::AtomicOp, _node.id(), home,
                             a.addr, _node.id(), 0);
    pkt->combinable = true;
    pkt->combineOp = a.op;
    pkt->combineOperand = a.operand;
    pkt->combineKey = a.addr;
    pkt->combineCookie = ++_atomicCookie;
    _node.eq().scheduleAfter(
        timing::masterOverhead,
        [this, p = std::move(pkt)]() mutable {
            _node.sendFromMaster(std::move(p));
        });
}

void
MasterModule::handleAtomicReply(const CohPacket &pkt)
{
    if (_atomics.empty())
        panic("node %u: stray atomic reply", _node.id());
    if (pkt.combineCookie != _atomicCookie) {
        panic("node %u: atomic reply cookie %u, expected %u",
              _node.id(), pkt.combineCookie, _atomicCookie);
    }
    PendingAtomic a = std::move(_atomics.front());
    _atomics.pop_front();
    // combineOperand carries the pre-op value, decombined stage by
    // stage if the request was merged in flight.
    a.done(pkt.combineOperand);
    launchAtomic();
}

void
MasterModule::missShared(Addr addr, bool is_store,
                         std::uint64_t value, LoadCallback ldone,
                         StoreCallback sdone, CohMsgType req)
{
    Addr block = blockBase(addr);
    unsigned slot = maxOutstanding;
    for (unsigned i = 0; i < maxOutstanding; ++i) {
        if (_mshrs[i].busy) {
            if (_mshrs[i].blockAddr == block) {
                // Merge: park behind the outstanding request and
                // replay when it completes (by then it usually
                // hits in the cache).
                _deferred.push_back(Deferred{
                    block, addr, is_store, value, std::move(ldone),
                    std::move(sdone)});
                return;
            }
        } else if (slot == maxOutstanding) {
            slot = i;
        }
    }
    if (slot == maxOutstanding)
        panic("node %u: MSHRs exhausted", _node.id());

    Mshr &m = _mshrs[slot];
    m.busy = true;
    m.blockAddr = block;
    m.reqType = req;
    m.isStore = is_store;
    m.addr = addr;
    m.storeValue = value;
    m.loadDone = std::move(ldone);
    m.storeDone = std::move(sdone);
    m.issueTick = _node.eq().now();

    // Pin the upgrading line so it is not replaced while we wait.
    if (req == CohMsgType::Ownership) {
        if (CacheLine *line = _node.cache().lookup(addr))
            line->pinned = true;
    }
    sendRequest(slot);
    if (auto *hook = _node.checkHook()) {
        hook->onStep(check::StepKind::MasterIssue, _node.id(),
                     block);
    }
}

bool
MasterModule::flushBlock(Addr addr)
{
    CacheLine *line = _node.cache().lookup(addr);
    if (!line || line->pinned)
        return false;
    evict(*line);
    if (auto *hook = _node.checkHook()) {
        hook->onStep(check::StepKind::MasterIssue, _node.id(),
                     blockBase(addr));
    }
    return true;
}

void
MasterModule::sendRequest(unsigned slot)
{
    Mshr &m = _mshrs[slot];
    NodeId home = addr_map::homeNode(m.blockAddr);
    auto pkt = makeCohPacket(m.reqType, _node.id(), home,
                             m.blockAddr, _node.id(),
                             static_cast<std::uint8_t>(slot));
    // Stamp the issuing phase epoch: a phase-priority home orders
    // same-block conflicts by it.
    pkt->reqEpoch = _epoch;
    // The request leaves after the miss-detection overhead.
    _node.eq().scheduleAfter(
        timing::masterOverhead,
        [this, p = std::move(pkt)]() mutable {
            _node.sendFromMaster(std::move(p));
        });
}

void
MasterModule::handleGrant(const CohPacket &pkt)
{
    if (pkt.type == CohMsgType::UpdateAck) {
        // Update acknowledgements carry no MSHR slot; they complete
        // the single in-flight update round.
        handleUpdateAck();
        return;
    }
    if (pkt.type == CohMsgType::AtomicReply) {
        // Atomics bypass the MSHRs entirely (combinable words are
        // never cached); matched by cookie, not slot.
        handleAtomicReply(pkt);
        return;
    }
    unsigned slot = pkt.mshr;
    if (slot >= maxOutstanding || !_mshrs[slot].busy)
        panic("node %u: grant for idle MSHR %u", _node.id(), slot);
    Mshr &m = _mshrs[slot];
    if (blockBase(pkt.addr) != m.blockAddr) {
        panic("node %u: grant for %llx but MSHR holds %llx",
              _node.id(), (unsigned long long)pkt.addr,
              (unsigned long long)m.blockAddr);
    }

    Cache &cache = _node.cache();
    unsigned word = (m.addr & (blockBytes - 1)) / 8;

    switch (pkt.type) {
      case CohMsgType::GrantShared:
      case CohMsgType::GrantExclusive:
        {
            CacheState st = pkt.type == CohMsgType::GrantShared
                ? CacheState::Shared
                : CacheState::Exclusive;
            CacheLine *line = install(m.blockAddr, pkt.data, st);
            std::uint64_t v = line ? line->data.w[word]
                                   : pkt.data.w[word];
            complete(slot, v);
            return;
        }
      case CohMsgType::GrantModified:
        {
            CacheLine *line = install(m.blockAddr, pkt.data,
                                      CacheState::Modified);
            if (line) {
                line->data.w[word] = m.storeValue;
            } else {
                // Uncacheable corner: write through to the home.
                auto wb = makeCohPacket(
                    CohMsgType::WriteBack, _node.id(),
                    addr_map::homeNode(m.blockAddr), m.blockAddr,
                    _node.id(), 0);
                wb->hasData = true;
                wb->data = pkt.data;
                wb->data.w[word] = m.storeValue;
                wb->sizeBytes = CohPacket::wireSize(true);
                ++writebacks;
                _node.sendFromMaster(std::move(wb));
            }
            complete(slot, 0);
            return;
        }
      case CohMsgType::GrantOwnership:
        {
            CacheLine *line = cache.lookup(m.blockAddr);
            if (line && line->state == CacheState::Shared) {
                line->state = CacheState::Modified;
                line->data.w[word] = m.storeValue;
                line->pinned = false;
                cache.touch(*line);
                complete(slot, 0);
                return;
            }
            // The line was invalidated while the ownership request
            // was in flight (the section 3.3 race): the grant is
            // useless — re-issue as a read-exclusive.
            ++ownershipReissues;
            m.reqType = CohMsgType::ReadExclusive;
            sendRequest(slot);
            return;
        }
      case CohMsgType::Nack:
        if (_node.cfg().protocol != ProtocolKind::Nack)
            panic("node %u: nack for MSHR %u under %s", _node.id(),
                  slot, nameOf(_node.cfg().protocol));
        ++nackRetries;
        _node.eq().scheduleAfter(timing::nackRetryDelay,
                                 [this, slot] { sendRequest(slot); });
        return;
      default:
        panic("node %u: unexpected grant type %s", _node.id(),
              nameOf(pkt.type));
    }
}

void
MasterModule::complete(unsigned slot, std::uint64_t load_value)
{
    Mshr &m = _mshrs[slot];
    Tick lat = _node.eq().now() - m.issueTick;
    if (m.isStore)
        storeMissLatency.sample(static_cast<double>(lat));
    else
        loadMissLatency.sample(static_cast<double>(lat));

    if (CacheLine *line = _node.cache().lookup(m.blockAddr))
        line->pinned = false;

    m.busy = false;
    Addr block = m.blockAddr;
    if (m.isStore) {
        auto done = std::move(m.storeDone);
        done();
    } else {
        auto done = std::move(m.loadDone);
        done(load_value);
    }
    replayDeferred(block);
}

void
MasterModule::replayDeferred(Addr block_addr)
{
    // Snapshot the parked accesses for this block, then replay each
    // through the full path: it may hit now, miss again (evicted
    // meanwhile), or merge behind a freshly issued request. The
    // snapshot allocates only when some access matches.
    Ring<Deferred> matching;
    for (std::size_t i = 0; i < _deferred.size();) {
        if (_deferred[i].blockAddr == block_addr) {
            matching.push_back(std::move(_deferred[i]));
            _deferred.erase(i);
        } else {
            ++i;
        }
    }
    for (Deferred &d : matching) {
        if (d.isStore)
            store(d.addr, d.storeValue, std::move(d.storeDone));
        else
            load(d.addr, std::move(d.loadDone));
    }
}

CacheLine *
MasterModule::install(Addr block_addr, const Block &data,
                      CacheState state)
{
    Cache &cache = _node.cache();
    CacheLine *line = cache.lookup(block_addr);
    if (!line) {
        line = cache.allocate(block_addr);
        if (!line)
            return nullptr; // every way pinned
        if (line->valid())
            evict(*line);
    }
    line->tag = block_addr;
    line->state = state;
    line->data = data;
    line->pinned = false;
    cache.touch(*line);
    return line;
}

void
MasterModule::evict(CacheLine &line)
{
    if (line.state != CacheState::Modified) {
        // Clean (S/E) lines are dropped silently; the directory may
        // keep a stale sharer, which the protocol tolerates (slaves
        // ack invalidations for lines they no longer hold).
        line.state = CacheState::Invalid;
        return;
    }
    if (addr_map::isShared(line.tag)) {
        NodeId home = addr_map::homeNode(line.tag);
        auto wb = makeCohPacket(CohMsgType::WriteBack, _node.id(),
                                home, line.tag, _node.id(), 0);
        wb->hasData = true;
        wb->data = line.data;
        wb->sizeBytes = CohPacket::wireSize(true);
        ++writebacks;
        _node.sendFromMaster(std::move(wb));
    } else {
        _node.privateMem().writeBlock(line.tag >> blockShift,
                                      line.data);
    }
    line.state = CacheState::Invalid;
}

} // namespace cenju
