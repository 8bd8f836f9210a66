#include "msgpass/msg_engine.hh"

namespace cenju
{

MsgEngine::MsgEngine(DsmNode &node) : _node(node)
{
    node.setUserHandler([this](PacketPtr pkt) {
        auto *mp = dynamic_cast<MsgPacket *>(pkt.get());
        if (!mp)
            panic("MsgEngine: unexpected user packet");
        pkt.release();
        handleArrival(std::unique_ptr<MsgPacket>(mp));
    });
}

void
MsgEngine::send(NodeId dst, int tag,
                std::vector<std::uint64_t> payload, unsigned bytes,
                InlineFunction<void(), 40> done)
{
    shard::assertOnOwnerShard(_node.shard(), _node.id());
    const TimingParams &tp = _node.timing();
    if (bytes == 0)
        bytes = static_cast<unsigned>(payload.size() * 8);

    auto pkt = std::make_unique<MsgPacket>();
    pkt->src = _node.id();
    pkt->dest = DestSpec::unicast(dst);
    pkt->tag = tag;
    pkt->payload = std::move(payload);
    pkt->payloadBytes = bytes;
    // The wire packet carries a bounded fragment; the full transfer
    // time is charged at the receiver from payloadBytes.
    pkt->sizeBytes = 16 + std::min(bytes, 128u);

    // Software send overhead occupies the sender, then the message
    // enters the network.
    _node.eq().scheduleAfter(
        tp.mpiSendOverhead,
        [this, p = std::move(pkt),
         done = std::move(done)]() mutable {
            _node.sendUser(std::move(p));
            done();
        });
}

void
MsgEngine::handleArrival(std::unique_ptr<MsgPacket> pkt)
{
    std::uint64_t key = packKey(pkt->src, pkt->tag);
    auto wit = _waiting.find(key);
    Arrived msg{std::move(pkt->payload), pkt->payloadBytes,
                _node.eq().now()};
    if (wit != _waiting.end() && !wit->second.empty()) {
        PendingRecv pr = std::move(wit->second.front());
        wit->second.pop_front();
        if (wit->second.empty())
            _waiting.erase(wit);
        complete(msg, std::move(pr.done));
        return;
    }
    _arrived[key].push_back(std::move(msg));
}

void
MsgEngine::recv(NodeId src, int tag, RecvCallback done)
{
    std::uint64_t key = packKey(src, tag);
    auto ait = _arrived.find(key);
    if (ait != _arrived.end() && !ait->second.empty()) {
        Arrived msg = std::move(ait->second.front());
        ait->second.pop_front();
        if (ait->second.empty())
            _arrived.erase(ait);
        complete(msg, std::move(done));
        return;
    }
    _waiting[key].push_back(PendingRecv{std::move(done)});
}

void
MsgEngine::complete(const Arrived &msg, RecvCallback done)
{
    const TimingParams &tp = _node.timing();
    Tick xfer = static_cast<Tick>(
        static_cast<double>(msg.bytes) / tp.mpiBytesPerNs);
    _node.eq().scheduleAfter(
        tp.mpiRecvOverhead + xfer,
        [done = std::move(done), payload = msg.payload]() mutable {
            done(std::move(payload));
        });
}

} // namespace cenju
