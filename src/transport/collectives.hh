/**
 * @file
 * The transport's collective steps, written once (paper section
 * 3.2): merging and decombining combinable requests, counting down
 * gathered replies and fanning a multicast out to unicasts. The
 * switches, the analytical backends and the reliability decorator
 * all call these, so backends differ only in where a step runs and
 * what it costs (docs/ARCHITECTURE.md "Writing a new backend").
 *
 * Header-only: cenju_transport links cenju_network, so a .cc file
 * here would close a link cycle.
 */

#ifndef CENJU_TRANSPORT_COLLECTIVES_HH
#define CENJU_TRANSPORT_COLLECTIVES_HH

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/hashing.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "transport/packet.hh"

namespace cenju
{

/**
 * One merge of two combinable requests, kept where the merge
 * happened so the reply can be decombined there (the algebra is in
 * transport/combine.hh).
 */
struct CombineRecord
{
    std::uint64_t repTicket = 0;      ///< surviving request
    std::uint64_t absorbedTicket = 0; ///< request merged away
    NodeId absorbedSrc = invalidNode;
    std::uint32_t absorbedCookie = 0;
    std::uint64_t prefix = 0; ///< rep operand at merge time
    CombineOp op = CombineOp::FetchAdd;
};

/**
 * Fold @p absorbed's operand into @p rep.
 * @pre same combineKey and combineOp
 * @return the record that decombines @p absorbed's reply
 */
inline CombineRecord
combineMerge(Packet &rep, const Packet &absorbed)
{
    CombineRecord r;
    r.repTicket = rep.combineTicket;
    r.absorbedTicket = absorbed.combineTicket;
    r.absorbedSrc = absorbed.src;
    r.absorbedCookie = absorbed.combineCookie;
    r.prefix = rep.combineOperand;
    r.op = rep.combineOp;
    rep.combineOperand = combineApply(rep.combineOp,
                                      rep.combineOperand,
                                      absorbed.combineOperand);
    return r;
}

/**
 * The absorbed requester's reply, rebuilt from the representative's
 * @p reply: the recorded prefix folded onto the reply's base value,
 * addressed to the absorbed requester under its own ticket.
 */
inline PacketPtr
decombine(const Packet &reply, const CombineRecord &r)
{
    PacketPtr sub = reply.clone();
    sub->readdress(r.absorbedSrc);
    sub->combineOperand =
        combineApply(r.op, reply.combineOperand, r.prefix);
    sub->combineTicket = r.absorbedTicket;
    sub->combineCookie = r.absorbedCookie;
    return sub;
}

/**
 * Merge records of one software combining site: the ideal
 * backend's home station or a direct tree node. Unbounded, unlike
 * the switch's CombineTable, because software has no slot limit to
 * model.
 */
class MergeLog
{
  public:
    void add(const CombineRecord &r) { _records.push_back(r); }

    /**
     * Remove every record whose representative is @p rep_ticket and
     * hand it to @p fn, in merge order. @p fn may add records.
     */
    template <class Fn>
    void
    take(std::uint64_t rep_ticket, Fn &&fn)
    {
        for (std::size_t k = 0; k < _records.size();) {
            if (_records[k].repTicket != rep_ticket) {
                ++k;
                continue;
            }
            CombineRecord r = _records[k];
            _records.erase(_records.begin() +
                           static_cast<std::ptrdiff_t>(k));
            fn(r);
        }
    }

    std::size_t size() const { return _records.size(); }

  private:
    std::vector<CombineRecord> _records;
};

/**
 * Gathered-reply merging at one destination, the software form of
 * the switch gather tables: the sibling replies of a gather count
 * down, and only the last one is delivered.
 */
class GatherCountdown
{
  public:
    /**
     * Count @p pkt, a gathered reply, against its group.
     * @retval true if it is the group's last reply (deliver it);
     * false if it was absorbed
     */
    bool
    arrive(const Packet &pkt)
    {
        if (!pkt.gatherGroup)
            panic("gathered packet without a gather group");
        auto it = _remaining.find(pkt.gatherId);
        if (it == _remaining.end()) {
            unsigned expected = pkt.gatherGroup->count();
            if (expected == 0)
                panic("gather with an empty group");
            it = _remaining.emplace(pkt.gatherId, expected).first;
        }
        if (--it->second > 0) {
            ++absorbed;
            return false;
        }
        _remaining.erase(it);
        ++forwarded;
        return true;
    }

    Counter absorbed;  ///< replies merged away
    Counter forwarded; ///< last replies delivered

  private:
    /** gatherId -> replies still expected. */
    std::unordered_map<std::uint32_t, unsigned, U64MixHash>
        _remaining;
};

/**
 * Expand a multicast into one unicast clone of @p pkt per member of
 * @p members, in NodeSet order, each handed to @p emit.
 * @return the copies beyond the first (NetStats::multicastCopies)
 */
template <class Emit>
unsigned
fanOutUnicast(const Packet &pkt, const NodeSet &members, Emit &&emit)
{
    unsigned n = members.count();
    members.forEach([&](NodeId t) {
        PacketPtr c = pkt.clone();
        c->readdress(t);
        emit(std::move(c));
    });
    return n > 1 ? n - 1 : 0;
}

} // namespace cenju

#endif // CENJU_TRANSPORT_COLLECTIVES_HH
