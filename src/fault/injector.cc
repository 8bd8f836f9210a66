#include "fault/injector.hh"

#include "core/dsm_system.hh"
#include "network/topology.hh"

namespace cenju::fault
{

namespace
{

// Fault plans address switch coordinates even on fabrics without
// switches; clamping against a degenerate 0x0 shape would divide by
// zero, so pretend such fabrics have one stage and one row (the
// fabricKick below is a no-op there anyway).
Transport::FabricShape
clampedShape(Transport &t)
{
    Transport::FabricShape sh = t.fabricShape();
    if (sh.stages == 0)
        sh.stages = 1;
    if (sh.rows == 0)
        sh.rows = 1;
    return sh;
}

} // namespace

FaultInjector::FaultInjector(DsmSystem &sys)
    : _sys(sys), _stages(clampedShape(sys.transport()).stages),
      _rows(clampedShape(sys.transport()).rows),
      _injectSqueeze(sys.numNodes(), 0),
      _xbSqueeze(std::size_t(_stages) * _rows, 0),
      _stallHolds(std::size_t(_stages) * _rows * switchRadix, 0),
      _deliveryHolds(sys.numNodes(), 0),
      _loss(std::size_t(sys.numNodes()) * 3)
{
    _sys.transport().setFaultHook(this);
}

FaultInjector::~FaultInjector()
{
    _sys.transport().setFaultHook(nullptr);
}

FaultEvent
FaultInjector::clamp(const FaultEvent &e) const
{
    FaultEvent c = e;
    c.node = e.node % _sys.numNodes();
    c.stage = e.stage % _stages;
    c.row = e.row % _rows;
    c.port = e.port % switchRadix;
    if (c.amount == 0)
        c.amount = 1;
    if (c.duration == 0)
        c.duration = 1;
    return c;
}

namespace
{

/** The node whose events apply a fault (its shard owns the state). */
NodeId
faultHome(const FaultEvent &e)
{
    switch (e.kind) {
      case FaultKind::InjectSqueeze:
      case FaultKind::DeliveryHold:
      case FaultKind::OutputHold:
      case FaultKind::HomeStall:
      case FaultKind::GatherHold:
        return e.node;
      case FaultKind::DropMsg:
      case FaultKind::DupMsg:
      case FaultKind::CorruptPayload:
        // Receiver-side loss windows (and the reliability wrapper
        // they require clamps to one shard anyway).
        return e.node;
      case FaultKind::XbSqueeze:
      case FaultKind::SwitchStall:
        // Fabric-wide faults only exist on the multistage backend,
        // which never shards; pin them to node 0 (shard 0).
        return 0;
    }
    return 0;
}

} // namespace

void
FaultInjector::arm(const FaultPlan &plan)
{
    // Loss faults break the fabric's delivery guarantee; only the
    // reliability decorator makes them survivable, so a plan that
    // contains them is invalid on a bare backend (docs/TESTING.md
    // fault taxonomy).
    if (_sys.config().reliability != ReliabilityKind::E2e) {
        for (const FaultEvent &e : plan.events) {
            if (isLossFault(e.kind)) {
                fatal("fault plan contains the illegal fault '%s', "
                      "which bare transport backends cannot "
                      "survive; rerun with --reliability=e2e "
                      "(reliability decorator, src/reliable/)",
                      serializeFaultEvent(e).c_str());
            }
        }
    }

    // scheduleOnNode puts each open/close on the shard owning the
    // state it mutates; sequentially it is plain scheduleAfter, so
    // the event order — and every golden digest — is unchanged.
    for (const FaultEvent &raw : plan.events) {
        FaultEvent e = clamp(raw);
        NodeId home = faultHome(e);
        _sys.scheduleOnNode(home, e.start, [this, e] { open(e); });
        _sys.scheduleOnNode(home, e.start + e.duration,
                            [this, e] { close(e); });
    }
}

void
FaultInjector::open(const FaultEvent &e)
{
    _opened.fetch_add(1, std::memory_order_relaxed);
    switch (e.kind) {
      case FaultKind::InjectSqueeze:
        _injectSqueeze[e.node] += e.amount;
        break;
      case FaultKind::XbSqueeze:
        _xbSqueeze[e.stage * _rows + e.row] += e.amount;
        break;
      case FaultKind::SwitchStall:
        ++_stallHolds[(e.stage * _rows + e.row) * switchRadix +
                      e.port];
        break;
      case FaultKind::DeliveryHold:
        ++_deliveryHolds[e.node];
        break;
      case FaultKind::OutputHold:
        _sys.node(e.node).faultHoldOutput();
        break;
      case FaultKind::HomeStall:
        _sys.node(e.node).home().faultHoldDispatch();
        break;
      case FaultKind::GatherHold:
        _sys.node(e.node).home().faultHoldGather();
        break;
      case FaultKind::DropMsg:
      case FaultKind::DupMsg:
      case FaultKind::CorruptPayload: {
        LossWin &w = _loss[std::size_t(e.node) * 3 +
                           (unsigned(e.kind) - numFaultKinds)];
        ++w.count;
        w.period = e.amount; // newest window's period wins
        break;
      }
    }
}

void
FaultInjector::close(const FaultEvent &e)
{
    Transport &net = _sys.transport();
    switch (e.kind) {
      case FaultKind::InjectSqueeze:
        _injectSqueeze[e.node] -= e.amount;
        net.faultInjectRetry(e.node);
        break;
      case FaultKind::XbSqueeze:
        _xbSqueeze[e.stage * _rows + e.row] -= e.amount;
        net.fabricKick(e.stage, e.row);
        break;
      case FaultKind::SwitchStall:
        if (--_stallHolds[(e.stage * _rows + e.row) * switchRadix +
                          e.port] == 0)
            net.fabricKick(e.stage, e.row);
        break;
      case FaultKind::DeliveryHold:
        if (--_deliveryHolds[e.node] == 0)
            net.deliveryRetry(e.node);
        break;
      case FaultKind::OutputHold:
        _sys.node(e.node).faultReleaseOutput();
        break;
      case FaultKind::HomeStall:
        _sys.node(e.node).home().faultReleaseDispatch();
        break;
      case FaultKind::GatherHold:
        _sys.node(e.node).home().faultReleaseGather();
        break;
      case FaultKind::DropMsg:
      case FaultKind::DupMsg:
      case FaultKind::CorruptPayload:
        // No kick: the ARQ's retransmit timers recover anything
        // the closing window lost.
        --_loss[std::size_t(e.node) * 3 +
                (unsigned(e.kind) - numFaultKinds)].count;
        break;
    }
}

unsigned
FaultInjector::injectQueueCapacity(NodeId n, unsigned base)
{
    unsigned amt = _injectSqueeze[n];
    return amt ? squeezed(base, amt) : base;
}

unsigned
FaultInjector::xbCapacity(unsigned stage, unsigned row,
                          unsigned base)
{
    unsigned amt = _xbSqueeze[stage * _rows + row];
    return amt ? squeezed(base, amt) : base;
}

bool
FaultInjector::switchOutputHeld(unsigned stage, unsigned row,
                                unsigned out)
{
    return _stallHolds[(stage * _rows + row) * switchRadix + out] >
           0;
}

bool
FaultInjector::deliveryHeld(NodeId dst)
{
    return _deliveryHolds[dst] > 0;
}

LossKind
FaultInjector::lossAction(NodeId dst)
{
    // Every active family's packet counter advances on every
    // arrival (so overlapping windows stay deterministic); when
    // several fire on the same packet, drop > dup > corrupt.
    static constexpr LossKind kinds[3] = {
        LossKind::Drop, LossKind::Duplicate, LossKind::Corrupt};
    LossKind verdict = LossKind::None;
    for (unsigned i = 0; i < 3; ++i) {
        LossWin &w = _loss[std::size_t(dst) * 3 + i];
        if (w.count == 0)
            continue;
        ++w.seen;
        if (verdict == LossKind::None && w.period != 0 &&
            w.seen % w.period == 0)
            verdict = kinds[i];
    }
    return verdict;
}

} // namespace cenju::fault
