/**
 * @file
 * Trace text format:
 *
 *   # comments and blank lines are ignored
 *   nodes 3
 *   blocks 1
 *   protocol queuing          (or: nack, phase-priority)
 *   bug none                  (or: skip-reservation, drop-sharer)
 *   batch load n0 b0
 *   batch store n1 b0 v1 | load n2 b0
 *   batch epoch n1
 *
 * `epoch n<k>` advances node k's phase epoch (meaningful under the
 * phase-priority protocol only; a barrier does this in real runs).
 *
 * Every `batch` line is one synchronous issue point; `|` separates
 * operations issued back-to-back at that instant. Header lines may
 * appear in any order but must precede the first batch.
 */

#include "check/trace.hh"

#include <sstream>

#include "memory/address_map.hh"
#include "sim/text.hh"

namespace cenju::check
{

Addr
blockAddress(const CheckConfig &cfg, unsigned block)
{
    NodeId home = static_cast<NodeId>(block % cfg.nodes);
    Addr offset = Addr(block / cfg.nodes) * blockBytes;
    return addr_map::makeShared(home, offset);
}

std::size_t
Trace::opCount() const
{
    std::size_t n = 0;
    for (const auto &b : batches)
        n += b.size();
    return n;
}

std::string
serializeTrace(const Trace &t)
{
    std::ostringstream os;
    os << "# cenju modelcheck trace\n";
    os << "nodes " << t.cfg.nodes << "\n";
    os << "blocks " << t.cfg.blocks << "\n";
    os << "protocol " << nameOf(t.cfg.protocol) << "\n";
    os << "bug " << nameOf(t.cfg.bug) << "\n";
    for (const auto &batch : t.batches) {
        os << "batch";
        bool first = true;
        for (const Op &op : batch) {
            os << (first ? " " : " | ") << nameOf(op.kind)
               << " n" << op.node;
            if (op.kind != OpKind::Epoch)
                os << " b" << op.block;
            if (op.kind == OpKind::Store)
                os << " v" << op.value;
            first = false;
        }
        os << "\n";
    }
    return os.str();
}

namespace
{

bool
parseOp(const std::string &text, Op &op, std::string &err)
{
    std::istringstream is(text);
    std::string kind;
    is >> kind;
    if (!parseName(kind, op.kind)) {
        err = "unknown operation '" + kind + "'";
        return false;
    }
    std::string tok;
    bool have_node = false, have_block = false,
         have_value = false;
    while (is >> tok) {
        std::string_view num = std::string_view(tok).substr(1);
        bool ok = false;
        switch (tok[0]) {
          case 'n':
            ok = have_node = parseUnsigned(num, op.node);
            break;
          case 'b':
            ok = have_block = parseUnsigned(num, op.block);
            break;
          case 'v':
            ok = have_value = parseUnsigned(num, op.value);
            break;
          default:
            break;
        }
        if (!ok) {
            err = "bad operand '" + tok + "'";
            return false;
        }
    }
    if (!have_node) {
        err = "operation '" + text + "' needs n<id>";
        return false;
    }
    if (!have_block && op.kind != OpKind::Epoch) {
        err = "operation '" + text + "' needs n<id> and b<id>";
        return false;
    }
    if (op.kind == OpKind::Store && !have_value) {
        err = "store '" + text + "' needs v<serial>";
        return false;
    }
    return true;
}

} // namespace

bool
parseTrace(const std::string &text, Trace &out, std::string &err)
{
    out = Trace{};
    std::istringstream is(text);
    std::string line;
    unsigned lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        // strip comments and surrounding whitespace
        std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key))
            continue;
        auto fail = [&](const std::string &why) {
            err = "line " + std::to_string(lineno) + ": " + why;
            return false;
        };
        std::string value;
        auto set = [&](auto &field) {
            ls >> value;
            return parseValue(value, field);
        };
        if (key == "nodes") {
            if (!set(out.cfg.nodes) || out.cfg.nodes == 0)
                return fail("bad node count '" + value + "'");
        } else if (key == "blocks") {
            if (!set(out.cfg.blocks) || out.cfg.blocks == 0)
                return fail("bad block count '" + value + "'");
        } else if (key == "protocol") {
            if (!set(out.cfg.protocol))
                return fail("unknown protocol '" + value + "'");
        } else if (key == "bug") {
            if (!set(out.cfg.bug))
                return fail("unknown bug '" + value + "'");
        } else if (key == "batch") {
            std::string rest;
            std::getline(ls, rest);
            std::vector<Op> batch;
            std::size_t pos = 0;
            while (pos <= rest.size()) {
                std::size_t bar = rest.find('|', pos);
                std::string part = rest.substr(
                    pos, bar == std::string::npos ? std::string::npos
                                                  : bar - pos);
                Op op;
                std::string operr;
                if (!parseOp(part, op, operr))
                    return fail(operr);
                batch.push_back(op);
                if (bar == std::string::npos)
                    break;
                pos = bar + 1;
            }
            if (batch.empty())
                return fail("empty batch");
            out.batches.push_back(std::move(batch));
        } else {
            return fail("unknown directive '" + key + "'");
        }
    }
    // validate operands against the configuration
    for (const auto &batch : out.batches) {
        for (const Op &op : batch) {
            if (op.node >= out.cfg.nodes) {
                err = "operation references node " +
                      std::to_string(op.node) + " of " +
                      std::to_string(out.cfg.nodes);
                return false;
            }
            if (op.kind != OpKind::Epoch &&
                op.block >= out.cfg.blocks) {
                err = "operation references block " +
                      std::to_string(op.block) + " of " +
                      std::to_string(out.cfg.blocks);
                return false;
            }
        }
    }
    return true;
}

} // namespace cenju::check
