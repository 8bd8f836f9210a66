/**
 * @file
 * Go-back-N ARQ over an arbitrary inner Transport (see the header
 * for the protocol walkthrough and the wire-normalization rules).
 */

#include "reliable/reliable_transport.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace cenju
{

ReliableTransport::ReliableTransport(std::unique_ptr<Transport> inner)
    : _inner(std::move(inner)),
      _eq(_inner->eventQueue()),
      _uppers(_inner->numNodes(), nullptr),
      _tx(_inner->numNodes()),
      _rx(_inner->numNodes())
{
    unsigned n = _inner->numNodes();
    _shims.resize(n);
    for (NodeId i = 0; i < n; ++i) {
        _shims[i].rt = this;
        _shims[i].node = i;
        _inner->attach(i, &_shims[i]);
    }
}

NetStats
ReliableTransport::netStats() const
{
    NetStats s = _inner->netStats();
    s.injected = injected;
    s.delivered = delivered;
    s.multicastCopies += _multicastCopies.value();
    for (const Rx &rx : _rx) {
        s.gatherAbsorbed += rx.gathers.absorbed.value();
        s.gatherForwarded += rx.gathers.forwarded.value();
    }
    return s;
}

std::uint32_t
ReliableTransport::headerSum(const Packet &pkt)
{
    // FNV-1a over every header field that is meaningful on the
    // normalized (unicast, flag-stripped) wire. relChecksum itself
    // and fields the inner backend rewrites (packetId, injectTick)
    // are excluded so the sum verifies unchanged at the receiver.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(pkt.src);
    mix(pkt.dest.unicastDest());
    mix(pkt.relSeq);
    mix(pkt.relSavedFlags);
    mix(pkt.sizeBytes);
    mix(pkt.gatherId);
    mix(static_cast<std::uint64_t>(pkt.combineOp));
    mix(pkt.combineOperand);
    mix(pkt.combineKey);
    mix(pkt.combineTicket);
    mix(pkt.combineCookie);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

void
ReliableTransport::attach(NodeId n, Endpoint *ep)
{
    if (n >= _uppers.size())
        panic("reliable: attach beyond %zu nodes", _uppers.size());
    _uppers[n] = ep;
}

bool
ReliableTransport::tryInject(PacketPtr &&pkt)
{
    NodeId src = pkt->src;
    if (src >= _tx.size())
        panic("reliable: inject from invalid node %u", src);
    Tx &tx = _tx[src];
    unsigned cap = std::max(1u, _inner->injectCapacity(src));
    if (tx.wireQ.size() >= cap) {
        tx.wasFull = true;
        return false;
    }
    ++injected;
    if (pkt->dest.kind() != DestSpec::Kind::Unicast) {
        // Wire normalization: the fabric must never replicate a
        // sequenced packet, so the multicast fans out here into one
        // sequenced unicast clone per member.
        _multicastCopies += fanOutUnicast(
            *pkt, decodedDest(*pkt), [this, src](PacketPtr c) {
                NodeId dst = c->dest.unicastDest();
                sendData(src, dst, std::move(c));
            });
    } else {
        NodeId dst = pkt->dest.unicastDest();
        sendData(src, dst, std::move(pkt));
    }
    pumpWire(src);
    return true;
}

void
ReliableTransport::sendData(NodeId src, NodeId dst, PacketPtr pkt)
{
    // Strip the fabric-service flags (stashed for the receive side):
    // in-fabric gather merging and combining would absorb sequenced
    // packets and stall the channel.
    pkt->relSavedFlags = static_cast<std::uint8_t>(
        (pkt->gathered ? 1u : 0u) | (pkt->combinable ? 2u : 0u) |
        (pkt->combinedReply ? 4u : 0u));
    pkt->gathered = false;
    pkt->combinable = false;
    pkt->combinedReply = false;

    SendChan &ch = _send[chanKey(src, dst)];
    pkt->relSeq = ch.nextSeq++;
    pkt->relChecksum = headerSum(*pkt);
    ++dataSent;

    Sent s;
    s.seq = pkt->relSeq;
    s.pkt = pkt->clone();
    bool was_idle = ch.unacked.empty();
    ch.unacked.push_back(std::move(s));
    _tx[src].wireQ.push_back(std::move(pkt));
    if (was_idle && !ch.dead)
        armTimer(src, dst);
}

void
ReliableTransport::pumpWire(NodeId src)
{
    Tx &tx = _tx[src];
    if (tx.pumping)
        return;
    tx.pumping = true;
    while (!tx.wireQ.empty()) {
        if (!_inner->tryInject(std::move(tx.wireQ.front())))
            break; // inner fires injectSpaceAvailable() at the shim
        tx.wireQ.pop_front();
    }
    tx.pumping = false;
}

void
ReliableTransport::onInnerSpace(NodeId n)
{
    pumpWire(n);
    Tx &tx = _tx[n];
    unsigned cap = std::max(1u, _inner->injectCapacity(n));
    if (tx.wasFull && tx.wireQ.size() < cap) {
        tx.wasFull = false;
        if (_uppers[n])
            _uppers[n]->injectSpaceAvailable();
    }
}

void
ReliableTransport::deliveryRetry(NodeId n)
{
    pumpUp(n);
    _inner->deliveryRetry(n);
}

void
ReliableTransport::faultInjectRetry(NodeId n)
{
    _inner->faultInjectRetry(n);
    onInnerSpace(n);
}

void
ReliableTransport::onInnerDeliver(NodeId dst, PacketPtr pkt)
{
    using fault::LossKind;
    LossKind act =
        _faultHook ? _faultHook->lossAction(dst) : LossKind::None;
    switch (act) {
      case LossKind::Drop:
        // Silent loss: no ack, so the sender's retransmit timer
        // recovers the packet (and everything behind it).
        ++faultDrops;
        return;
      case LossKind::Duplicate: {
        ++faultDups;
        PacketPtr dup = pkt->clone();
        receiveData(dst, std::move(pkt));
        receiveData(dst, std::move(dup));
        return;
      }
      case LossKind::Corrupt:
        // A detected bit error: the checksum no longer verifies, so
        // the packet is discarded below and retransmission recovers.
        ++faultCorrupts;
        pkt->relChecksum ^= 0x5a5a5a5au;
        receiveData(dst, std::move(pkt));
        return;
      case LossKind::None:
        receiveData(dst, std::move(pkt));
        return;
    }
}

void
ReliableTransport::receiveData(NodeId dst, PacketPtr pkt)
{
    NodeId src = pkt->src;
    if (pkt->relSeq == 0)
        panic("reliable: unsequenced packet from node %u", src);
    if (headerSum(*pkt) != pkt->relChecksum) {
        ++checksumRejects;
        return; // no ack: sender retransmits
    }
    RecvChan &rc = _recv[chanKey(src, dst)];
    std::uint32_t seq = pkt->relSeq;
    if (seq == rc.expected) {
        ++rc.expected;
        scheduleAck(src, dst, seq);
        acceptUp(dst, std::move(pkt));
    } else if (seq < rc.expected) {
        // Duplicate (fault-injected or a retransmit overshoot):
        // discard, but re-ack so a lost ack cannot wedge the sender.
        ++dupDiscards;
        scheduleAck(src, dst, rc.expected - 1);
    } else {
        // Gap: go-back-N resends everything from `expected` in
        // order, so out-of-window packets are simply discarded.
        ++gapDiscards;
        scheduleAck(src, dst, rc.expected - 1);
    }
}

void
ReliableTransport::acceptUp(NodeId dst, PacketPtr pkt)
{
    std::uint8_t f = pkt->relSavedFlags;
    pkt->gathered = (f & 1u) != 0;
    pkt->combinable = (f & 2u) != 0;
    pkt->combinedReply = (f & 4u) != 0;
    pkt->relSavedFlags = 0;

    // Software reply merging, same semantics as the fabric's gather
    // tables: sibling replies (arriving exactly once each thanks to
    // the ARQ) count down; only the last is delivered.
    if (pkt->gathered && !_rx[dst].gathers.arrive(*pkt))
        return; // absorbed
    _rx[dst].upQ.push_back(std::move(pkt));
    pumpUp(dst);
}

void
ReliableTransport::pumpUp(NodeId dst)
{
    Rx &rx = _rx[dst];
    if (rx.pumping)
        return;
    rx.pumping = true;
    while (!rx.upQ.empty()) {
        Endpoint *ep = _uppers[dst];
        if (!ep)
            panic("reliable: deliver to unattached node %u", dst);
        if (!ep->reserveDelivery(*rx.upQ.front()))
            break; // endpoint calls deliveryRetry() on free space
        PacketPtr pkt = std::move(rx.upQ.front());
        rx.upQ.pop_front();
        ++delivered;
        ep->deliver(std::move(pkt));
        if (_checkHook)
            _checkHook->onStep(check::StepKind::NetworkDeliver,
                               dst, 0);
    }
    rx.pumping = false;
}

void
ReliableTransport::scheduleAck(NodeId dataSrc, NodeId dst,
                               std::uint32_t seq)
{
    // Out-of-band cumulative ack: a dedicated hardware wire in the
    // model, so it occupies no fabric resources and is not subject
    // to the loss faults (docs/TESTING.md).
    ++acksSent;
    _eq.scheduleAfter(ackLatency, [this, dataSrc, dst, seq] {
        onAck(dataSrc, dst, seq);
    });
}

void
ReliableTransport::onAck(NodeId src, NodeId dst, std::uint32_t ackSeq)
{
    auto it = _send.find(chanKey(src, dst));
    if (it == _send.end())
        return;
    SendChan &ch = it->second;
    bool progress = false;
    while (!ch.unacked.empty() && ch.unacked.front().seq <= ackSeq) {
        ch.unacked.pop_front();
        progress = true;
    }
    if (!progress || ch.dead)
        return;
    ch.rto = rtoBase;
    ch.retries = 0;
    ++ch.generation; // cancel the outstanding timer
    if (!ch.unacked.empty())
        armTimer(src, dst);
}

void
ReliableTransport::armTimer(NodeId src, NodeId dst)
{
    SendChan &ch = _send[chanKey(src, dst)];
    std::uint64_t gen = ch.generation;
    _eq.scheduleAfter(ch.rto, [this, src, dst, gen] {
        onTimeout(src, dst, gen);
    });
}

void
ReliableTransport::onTimeout(NodeId src, NodeId dst,
                             std::uint64_t gen)
{
    auto it = _send.find(chanKey(src, dst));
    if (it == _send.end())
        return;
    SendChan &ch = it->second;
    if (gen != ch.generation || ch.unacked.empty() || ch.dead)
        return; // stale timer: a cumulative ack made progress
    backoffTicks += ch.rto;
    ++ch.retries;
    if (ch.retries > retryBudget) {
        linkDead(src, dst, ch);
        return;
    }
    // Go-back-N: retransmit the whole unacked window in sequence
    // order (the receiver discards anything out of order anyway).
    for (Sent &s : ch.unacked) {
        _tx[src].wireQ.push_back(s.pkt->clone());
        ++retransmits;
    }
    ch.rto = std::min<Tick>(ch.rto * 2, rtoCap);
    ++ch.generation;
    armTimer(src, dst);
    pumpWire(src);
}

void
ReliableTransport::linkDead(NodeId src, NodeId dst, SendChan &ch)
{
    ch.dead = true;
    ++linksDead;
    if (_onLinkDead) {
        _onLinkDead(src, dst);
        return;
    }
    fatal("reliable: link %u->%u dead after %u retransmit rounds "
          "(rto capped at %llu ticks) — the seed and fault plan "
          "replay this deterministically",
          src, dst, retryBudget,
          static_cast<unsigned long long>(rtoCap));
}

} // namespace cenju
