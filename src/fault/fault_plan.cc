#include "fault/fault_plan.hh"

#include <sstream>

#include "sim/rng.hh"

namespace cenju::fault
{

FaultPlan
randomPlan(Rng &rng, const PlanShape &shape)
{
    FaultPlan plan;
    auto count = unsigned(
        rng.range(shape.minEvents, shape.maxEvents));
    plan.events.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        FaultEvent e;
        e.kind = static_cast<FaultKind>(rng.below(numFaultKinds));
        e.start = Tick(rng.below(shape.horizon));
        e.duration =
            Tick(rng.range(shape.minDuration, shape.maxDuration));
        switch (e.kind) {
          case FaultKind::InjectSqueeze:
            e.node = unsigned(rng.below(shape.nodes));
            e.amount = 1 + unsigned(rng.below(3));
            break;
          case FaultKind::XbSqueeze:
            e.stage = unsigned(rng.below(shape.stages));
            e.row = unsigned(rng.below(shape.rows));
            e.amount = 1 + unsigned(rng.below(7));
            break;
          case FaultKind::SwitchStall:
            e.stage = unsigned(rng.below(shape.stages));
            e.row = unsigned(rng.below(shape.rows));
            e.port = unsigned(rng.below(4));
            break;
          case FaultKind::DeliveryHold:
          case FaultKind::OutputHold:
          case FaultKind::HomeStall:
          case FaultKind::GatherHold:
            e.node = unsigned(rng.below(shape.nodes));
            break;
          case FaultKind::DropMsg:
          case FaultKind::DupMsg:
          case FaultKind::CorruptPayload:
            // Unreachable: the draw above is over the legal kinds
            // only (loss plans come from randomLossPlan).
            break;
        }
        plan.events.push_back(e);
    }
    return plan;
}

FaultPlan
randomLossPlan(Rng &rng, const PlanShape &shape)
{
    FaultPlan plan;
    auto count = unsigned(
        rng.range(shape.minEvents, shape.maxEvents));
    plan.events.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        FaultEvent e;
        e.kind = static_cast<FaultKind>(
            numFaultKinds + unsigned(rng.below(numTotalFaultKinds -
                                               numFaultKinds)));
        e.start = Tick(rng.below(shape.horizon));
        e.duration =
            Tick(rng.range(shape.minDuration, shape.maxDuration));
        e.node = unsigned(rng.below(shape.nodes));
        e.amount = 1 + unsigned(rng.below(4)); // loss period 1..4
        plan.events.push_back(e);
    }
    return plan;
}

bool
planHasLossFaults(const FaultPlan &plan)
{
    for (const FaultEvent &e : plan.events) {
        if (isLossFault(e.kind))
            return true;
    }
    return false;
}

std::string
serializeFaultEvent(const FaultEvent &e)
{
    std::ostringstream os;
    os << "fault " << nameOf(e.kind) << " at " << e.start
       << " dur " << e.duration;
    switch (e.kind) {
      case FaultKind::InjectSqueeze:
        os << " node " << e.node << " amount " << e.amount;
        break;
      case FaultKind::XbSqueeze:
        os << " stage " << e.stage << " row " << e.row << " amount "
           << e.amount;
        break;
      case FaultKind::SwitchStall:
        os << " stage " << e.stage << " row " << e.row << " port "
           << e.port;
        break;
      case FaultKind::DeliveryHold:
      case FaultKind::OutputHold:
      case FaultKind::HomeStall:
      case FaultKind::GatherHold:
        os << " node " << e.node;
        break;
      case FaultKind::DropMsg:
      case FaultKind::DupMsg:
      case FaultKind::CorruptPayload:
        os << " node " << e.node << " amount " << e.amount;
        break;
    }
    return os.str();
}

bool
parseFaultEvent(const std::string &line, FaultEvent &out,
                std::string &err)
{
    std::istringstream is(line);
    std::string word;
    if (!(is >> word) || word != "fault") {
        err = "expected 'fault': " + line;
        return false;
    }
    std::string kind;
    if (!(is >> kind) || !parseName(kind, out.kind)) {
        err = "bad fault kind: " + line;
        return false;
    }
    std::string key, text;
    while (is >> key) {
        std::uint64_t value = 0;
        if (!(is >> text) || !parseUnsigned(text, value)) {
            err = "missing or bad value for '" + key + "': " + line;
            return false;
        }
        if (key == "at")
            out.start = Tick(value);
        else if (key == "dur")
            out.duration = Tick(value);
        else if (key == "node")
            out.node = unsigned(value);
        else if (key == "stage")
            out.stage = unsigned(value);
        else if (key == "row")
            out.row = unsigned(value);
        else if (key == "port")
            out.port = unsigned(value);
        else if (key == "amount")
            out.amount = unsigned(value);
        else {
            err = "unknown key '" + key + "': " + line;
            return false;
        }
    }
    if (out.duration == 0)
        out.duration = 1;
    return true;
}

} // namespace cenju::fault
