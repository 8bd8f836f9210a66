/**
 * @file
 * FaultInjector: executes a FaultPlan against a live DsmSystem.
 *
 * The injector implements the network-side FaultHook queries from
 * refcounted window state, and drives the node-side hold/release
 * pairs (output pump, home dispatch, gather unit) directly. Window
 * opens/closes are ordinary simulation events, so a plan perturbs a
 * run deterministically: same seed, same interleaving, same digest.
 *
 * Targets are clamped modulo the system's actual size so a plan
 * generated for a large system stays valid after the shrinker cuts
 * the node count.
 */

#ifndef CENJU_FAULT_INJECTOR_HH
#define CENJU_FAULT_INJECTOR_HH

#include <atomic>
#include <vector>

#include "fault/fault_plan.hh"
#include "fault/hooks.hh"

namespace cenju
{

class DsmSystem;

namespace fault
{

/** Applies fault windows to one system (attaches as its FaultHook). */
class FaultInjector : public FaultHook
{
  public:
    explicit FaultInjector(DsmSystem &sys);
    ~FaultInjector() override;

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Schedule every window of @p plan (call before running the
     * system; opens and closes become simulation events).
     */
    void arm(const FaultPlan &plan);

    /** Windows opened over the injector's lifetime. */
    unsigned
    openedWindows() const
    {
        return _opened.load(std::memory_order_relaxed);
    }

    // --- FaultHook -------------------------------------------------

    unsigned injectQueueCapacity(NodeId n, unsigned base) override;
    unsigned xbCapacity(unsigned stage, unsigned row,
                        unsigned base) override;
    bool switchOutputHeld(unsigned stage, unsigned row,
                          unsigned out) override;
    bool deliveryHeld(NodeId dst) override;
    LossKind lossAction(NodeId dst) override;

  private:
    /** Clamp plan coordinates into this system. */
    FaultEvent clamp(const FaultEvent &e) const;

    void open(const FaultEvent &e);
    void close(const FaultEvent &e);

    static unsigned
    squeezed(unsigned base, unsigned amount)
    {
        return amount >= base ? 1 : base - amount;
    }

    DsmSystem &_sys;
    unsigned _stages;
    unsigned _rows;

    // Per-node window state is only touched from the owning node's
    // events (arm() schedules opens/closes on the target node), so
    // sharded runs need no synchronization here. The two global
    // tallies below are the exception: windows on different shards
    // bump them concurrently, hence relaxed atomics (they are
    // counters, never synchronization).
    std::vector<unsigned> _injectSqueeze; ///< per node, summed
    std::vector<unsigned> _xbSqueeze;     ///< per (stage,row)
    std::vector<unsigned> _stallHolds;    ///< per (stage,row,port)
    std::vector<unsigned> _deliveryHolds; ///< per node, refcount

    /**
     * One loss-window family at one node (drop, dup or corrupt):
     * while count > 0, every period-th arriving data packet is
     * acted on. Loss faults force the reliability decorator, which
     * clamps to one shard, so this state is race-free by
     * construction.
     */
    struct LossWin
    {
        unsigned count = 0;   ///< open windows (refcount)
        unsigned period = 1;  ///< act on every period-th packet
        std::uint64_t seen = 0;
    };

    /** Indexed node * 3 + (kind - numFaultKinds). */
    std::vector<LossWin> _loss;

    std::atomic<unsigned> _opened{0};
};

} // namespace fault
} // namespace cenju

#endif // CENJU_FAULT_INJECTOR_HH
