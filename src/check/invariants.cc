#include "check/invariants.hh"

#include <sstream>

#include "node/dsm_node.hh"

namespace cenju::check
{

RuntimeChecker::RuntimeChecker(std::vector<DsmNode *> nodes,
                               OnViolation mode)
    : _nodes(std::move(nodes)), _mode(mode)
{}

void
RuntimeChecker::report(const char *invariant, std::string detail)
{
    Tick now = _nodes.empty() ? 0 : _nodes[0]->eq().now();
    if (_mode == OnViolation::Panic) {
        panic("invariant '%s' violated @%llu: %s", invariant,
              (unsigned long long)now, detail.c_str());
    }
    // Collect mode re-checks on every step; keep one copy.
    for (const Violation &v : _violations) {
        if (v.invariant == invariant && v.detail == detail)
            return;
    }
    _violations.push_back(
        Violation{invariant, std::move(detail), now});
}

void
RuntimeChecker::onStep(StepKind kind, NodeId at, Addr addr)
{
    (void)kind;
    (void)at;
    ++_steps;
    if (addr != 0 && addr_map::isShared(addr))
        checkAddr(addr);
}

void
RuntimeChecker::checkAddr(Addr addr)
{
    Addr block_addr = blockBase(addr);
    NodeId h = addr_map::homeNode(block_addr);
    if (h >= _nodes.size())
        return;

    unsigned n = static_cast<unsigned>(_nodes.size());
    std::uint64_t blk = addr_map::localBlock(block_addr);
    const DirectoryEntry *e =
        _nodes[h]->home().directory().find(blk);

    // Gather the true set of caching nodes and their states.
    NodeSet sharers(n);
    unsigned exclusive = 0, shared = 0;
    for (DsmNode *node : _nodes) {
        const CacheLine *line = node->cache().lookup(block_addr);
        if (!line)
            continue;
        sharers.insert(node->id());
        if (line->state == CacheState::Modified ||
            line->state == CacheState::Exclusive)
            ++exclusive;
        else
            ++shared;
    }

    auto where = [&](const char *what) {
        std::ostringstream os;
        os << what << " home " << h << " block 0x" << std::hex
           << block_addr << std::dec;
        if (e)
            os << " state " << nameOf(e->state());
        return os.str();
    };

    if (exclusive > 1) {
        report("swmr", where("multiple M/E copies:"));
    } else if (exclusive == 1 && shared > 0) {
        report("swmr", where("M/E copy coexists with S copies:"));
    }

    if (!e) {
        if (!sharers.empty())
            report("dir-superset",
                   where("cached copies but no directory entry:"));
        return;
    }

    NodeSet decoded = e->map().decode(n);
    if (!sharers.subsetOf(decoded)) {
        std::string detail = where("node map misses a sharer:");
        sharers.forEach([&detail](NodeId v) {
            detail += " s" + std::to_string(v);
        });
        decoded.forEach([&detail](NodeId v) {
            detail += " m" + std::to_string(v);
        });
        report("dir-superset", std::move(detail));
    }

    if (e->state() == MemState::Dirty && decoded.count() != 1) {
        report("dirty-owner",
               where("Dirty entry without exactly one owner:"));
    }

    if (e->state() == MemState::Clean) {
        if (exclusive > 0) {
            report("clean-copies",
                   where("M/E copy while entry is Clean:"));
        }
        Block mem = _nodes[h]->sharedMem().readBlock(blk);
        for (DsmNode *node : _nodes) {
            const CacheLine *line =
                node->cache().lookup(block_addr);
            if (line && !(line->data == mem)) {
                report("clean-value",
                       where("cached copy diverges from memory "
                             "while Clean:") +
                           " at node " +
                           std::to_string(node->id()));
            }
        }
    }

    bool pending_op = _nodes[h]->home().hasPendingOp(block_addr);
    if (isPending(e->state()) != pending_op) {
        report("pending-op",
               where(pending_op
                         ? "in-flight op on a non-pending entry:"
                         : "pending entry without in-flight op:"));
    }

    checkHomeQueues(h);
}

void
RuntimeChecker::checkHomeQueues(NodeId h)
{
    const HomeModule &home = _nodes[h]->home();
    const auto &queue = home.requestQueue().items();

    if (!queue.empty()) {
        Addr head = blockBase(queue.front().addr);
        std::uint64_t blk = addr_map::localBlock(head);
        const DirectoryEntry *e =
            home.directory().find(blk);
        std::ostringstream os;
        os << "home " << h << " queue head block 0x" << std::hex
           << head << std::dec << " (depth " << queue.size()
           << ")";
        if (!e || !e->reservation()) {
            // The scan that would serve this queue is triggered by
            // the completion of the reserved block; without the bit
            // the queue is parked forever (section 3.3).
            report("reservation-queue",
                   os.str() + ": reservation bit not set");
        } else if (!isPending(e->state())) {
            report("reservation-queue",
                   os.str() +
                       ": reserved head block is not pending — no "
                       "completion will ever rescan the queue");
        }
    }

    // Phase-priority serves lower epochs first: parked requests
    // stay sorted by epoch.
    if (_nodes[h]->cfg().protocol == ProtocolKind::PhasePriority) {
        for (std::size_t i = 1; i < queue.size(); ++i) {
            if (queue[i].epoch >= queue[i - 1].epoch)
                continue;
            std::ostringstream os;
            os << "home " << h << " queue slot " << i << " epoch "
               << queue[i].epoch << " behind epoch "
               << queue[i - 1].epoch;
            report("phase-order", os.str());
        }
    }

    // A reservation bit may only mark the queue head's block.
    Addr head_block =
        queue.empty() ? 0 : blockBase(queue.front().addr);
    _nodes[h]->home().directory().forEachEntry(
        [&](std::uint64_t blk, const DirectoryEntry &e) {
            if (!e.reservation())
                return;
            std::ostringstream os;
            os << "home " << h << " block " << blk;
            if (queue.empty()) {
                report("reservation-head",
                       os.str() +
                           " reserved but the queue is empty");
            } else if (addr_map::localBlock(head_block) != blk) {
                report("reservation-head",
                       os.str() +
                           " reserved but is not the queue head");
            }
        });
}

void
RuntimeChecker::checkAll()
{
    for (DsmNode *node : _nodes) {
        NodeId h = node->id();
        node->home().directory().forEachEntry(
            [&](std::uint64_t blk, const DirectoryEntry &) {
                checkAddr(addr_map::makeShared(
                    h, blk * blockBytes));
            });
    }
}

void
RuntimeChecker::checkQuiescent()
{
    checkAll();
    for (DsmNode *node : _nodes) {
        NodeId h = node->id();
        const HomeModule &home = node->home();
        if (!home.requestQueue().empty()) {
            report("quiesce-queue",
                   "home " + std::to_string(h) +
                       " quiesced with " +
                       std::to_string(home.requestQueue().size()) +
                       " parked requests");
        }
        if (home.pendingOps() != 0) {
            report("quiesce-pending",
                   "home " + std::to_string(h) +
                       " quiesced with in-flight directory ops");
        }
        node->home().directory().forEachEntry(
            [&](std::uint64_t blk, const DirectoryEntry &e) {
                if (e.reservation() || isPending(e.state())) {
                    report("quiesce-entry",
                           "home " + std::to_string(h) +
                               " block " + std::to_string(blk) +
                               " quiesced pending/reserved");
                }
            });
    }
}

std::string
diagnoseStall(const std::vector<DsmNode *> &nodes)
{
    std::ostringstream os;
    bool dead_queue = false;
    for (DsmNode *node : nodes) {
        NodeId id = node->id();
        const HomeModule &home = node->home();
        for (Addr block : node->master().outstandingBlocks()) {
            NodeId h = addr_map::homeNode(block);
            os << "  node " << id << " MSHR waits on block 0x"
               << std::hex << block << std::dec << " -> ";
            bool queued = false;
            if (h < nodes.size()) {
                const HomeModule &th = nodes[h]->home();
                for (const QueuedReq &q :
                     th.requestQueue().items()) {
                    if (blockBase(q.addr) == block &&
                        q.master == id)
                        queued = true;
                }
                if (th.hasPendingOp(block))
                    os << "pending op at home " << h;
                else if (queued)
                    os << "parked in home " << h << "'s queue";
                else
                    os << "nothing at home " << h
                       << " (lost request?)";
            }
            os << "\n";
        }
        if (!home.requestQueue().empty()) {
            const auto &q = home.requestQueue().items();
            Addr head = blockBase(q.front().addr);
            const DirectoryEntry *e = home.directory().find(
                addr_map::localBlock(head));
            os << "  home " << id << " queue depth " << q.size()
               << ", head block 0x" << std::hex << head
               << std::dec;
            if (!e || !e->reservation()) {
                os << " [DEAD: reservation bit clear, no "
                      "completion will rescan]";
                dead_queue = true;
            } else if (!home.hasPendingOp(head)) {
                os << " [DEAD: reserved but no in-flight op]";
                dead_queue = true;
            } else {
                os << " waits on its pending op";
            }
            os << "\n";
        }
        if (home.gatherBacklog() != 0) {
            os << "  home " << id << " has "
               << home.gatherBacklog()
               << " invalidation rounds parked on the gather "
                  "unit\n";
        }
        if (home.inputBacklog() != 0) {
            os << "  home " << id << " input backlog "
               << home.inputBacklog() << "\n";
        }
        if (node->slave().replyStalled()) {
            os << "  slave " << id
               << " reply stalled on the output register\n";
        }
        if (node->slave().backlog() != 0) {
            os << "  slave " << id << " input backlog "
               << node->slave().backlog() << "\n";
        }
        if (node->homeOutBacklog() != 0) {
            os << "  node " << id << " home-output backlog "
               << node->homeOutBacklog() << "\n";
        }
    }
    if (dead_queue) {
        os << "  => a parked request can never be dequeued "
              "(starvation)\n";
    }
    std::string s = os.str();
    return s.empty() ? "  (no waiting resources found)\n" : s;
}

} // namespace cenju::check
