/**
 * @file
 * Randomized multi-node workload patterns for the fault-injection
 * stress harness (src/fault, docs/TESTING.md).
 *
 * Each pattern is an SPMD coroutine program over one block-cyclic
 * shared array, parameterized by a seed so a whole workload is
 * reproducible from a single uint64. The four patterns cover the
 * protocol behaviours the queuing protocol's hard cases live in:
 *
 *  - sharing-heavy:     many readers and writers piling onto a few
 *                       hot blocks (invalidation multicasts, queue
 *                       growth at one home);
 *  - migratory:         read-modify-write chains handing exclusive
 *                       ownership around the machine;
 *  - producer-consumer: one writer per round, everyone else reads
 *                       (single-source invalidation then broadcast
 *                       resharing);
 *  - barrier-churn:     short access bursts between many barriers
 *                       (mixes coherence with message passing).
 *
 * Per-node randomness comes from Rng(seed).split(node id), so the
 * program a node runs depends only on (seed, id, parameters) — never
 * on simulation timing. Every node executes the same number of
 * barriers, so a pattern can only deadlock if the machine loses a
 * message (which is exactly what the stress harness checks).
 */

#ifndef CENJU_WORKLOAD_STRESS_PATTERNS_HH
#define CENJU_WORKLOAD_STRESS_PATTERNS_HH

#include <array>
#include <cstdint>
#include <functional>

#include "core/dsm_system.hh"
#include "exec/task.hh"
#include "sim/text.hh"

namespace cenju
{

/** The workload families the stress harness draws from. */
enum class StressPattern : std::uint8_t
{
    SharingHeavy,
    Migratory,
    ProducerConsumer,
    BarrierChurn,
    HotSpot,
};

/** Serialized pattern names, in enumerator order (sim/text.hh). */
constexpr auto
enumNames(StressPattern)
{
    return std::array{"sharing-heavy", "migratory", "producer-consumer",
                      "barrier-churn", "hot-spot"};
}

constexpr unsigned numStressPatterns = numNames<StressPattern>;

/**
 * Patterns a random seed may draw (the first N of the enum).
 * HotSpot is excluded: it needs a combinable sync array and typed
 * atomics, and folding it into the random rotation would shift
 * every recorded stress digest (tests/golden). Reach it explicitly
 * with --pattern hot-spot or StressOptions::patternFixed.
 */
constexpr unsigned numRandomStressPatterns = 4;

/** Parameters of one stress workload. */
struct StressWorkload
{
    StressPattern pattern = StressPattern::SharingHeavy;
    unsigned blocks = 4;      ///< shared blocks touched
    unsigned opsPerNode = 32; ///< accesses per node per round
    unsigned rounds = 2;      ///< barrier-separated rounds
    std::uint64_t seed = 1;   ///< workload randomness
};

/** Combinable sync words the hot-spot pattern operates on. */
constexpr std::size_t hotSpotSyncWords = 4;

/**
 * Build the per-node program for @p w over @p arr (allocated
 * block-cyclic with w.blocks * ShmArray::wordsPerBlock words, so
 * consecutive blocks are homed on consecutive nodes). The same
 * function is handed to every node; nodes diverge only through
 * env.id().
 *
 * The HotSpot pattern additionally needs @p sync, a combinable
 * array of at least hotSpotSyncWords words (shmAllocCombinable);
 * the other patterns ignore it.
 */
std::function<Task(Env &)> makeStressProgram(const StressWorkload &w,
                                             ShmArray arr,
                                             ShmArray sync = {});

} // namespace cenju

#endif // CENJU_WORKLOAD_STRESS_PATTERNS_HH
