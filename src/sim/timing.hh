/**
 * @file
 * Timing constants of the simulated machine.
 *
 * All constants are in nanoseconds, calibrated so the simulated
 * protocol sequences reproduce the paper's Table 2 load latencies:
 *
 *   a) private miss          = master 150 + memory 320       =  470
 *   b) shared local (clean)  = a + directory 140             =  610
 *   c) shared remote (clean) = b + 2 x traversal(stages)     = 1690 /
 *        traversal(s) = 280 + 130 s                            2210 /
 *        (traversal(), transport/net_config.hh)                2730
 *   d) shared local (dirty)  = b + 2 x traversal + slave 210 = 1900 /
 *                                                              2480* /
 *                                                              3060*
 *   e) shared remote (dirty) = d + 2 x traversal - 0         ~ 2980
 *        (paper: 3120; the residual ~4% is the paper's extra
 *         per-stage cost for data-bearing messages, which our
 *         cut-through model does not charge at zero load)
 *
 * The no-multicast estimate (Figure 10) is calibrated by the
 * serialized per-invalidation controller occupancy: 1023 x (120 +
 * 60) ~ 184 us at 1024 sharers, the paper's number.
 */

#ifndef CENJU_SIM_TIMING_HH
#define CENJU_SIM_TIMING_HH

#include "types.hh"

namespace cenju
{

/**
 * Latency/occupancy constants of nodes and memory. The network's
 * latencies live in transport/net_config.hh.
 */
namespace timing
{

/** Processor overhead to detect a miss and form a request. */
constexpr Tick masterOverhead = 150;

/** Main-memory (DRAM) block access at a node. */
constexpr Tick memoryAccess = 320;

/** Secondary-cache hit latency. */
constexpr Tick cacheHitLatency = 50;

/** One directory read-modify-write at the home. */
constexpr Tick directoryAccess = 140;

/** Slave-module occupancy to service one forwarded request or
 * invalidation. */
constexpr Tick slaveOccupancy = 210;

/** Home occupancy to process a gathered/unicast ack or other
 * dataless reply. */
constexpr Tick ackProcess = 60;

/**
 * Controller occupancy to emit one unicast invalidation when the
 * multicast function is disabled: the serialization point that
 * makes no-multicast store latency linear in the sharer count
 * (1023 x (120 + 60) ~ the paper's 184 us estimate at 1024).
 */
constexpr Tick unicastInvSendOccupancy = 120;

/** Main-memory access to enqueue/dequeue one queued message. */
constexpr Tick memoryQueueAccess = 80;

/** Nack protocol only: master delay before retrying. */
constexpr Tick nackRetryDelay = 400;

/** Nanoseconds charged per executed (non-memory) instruction. */
constexpr Tick nsPerInstruction = 3;

/** MPI-like software send overhead (sender side). Calibrated
 * with mpiRecvOverhead so that an 8-byte one-way message on a
 * 128-node (4-stage) system takes the paper's 9.1 us:
 * 4125 + 800 + 4125 + 8/0.169 ~ 9097 ns. */
constexpr Tick mpiSendOverhead = 4125;

/** MPI-like software receive overhead (receiver side). */
constexpr Tick mpiRecvOverhead = 4125;

/** MPI payload bandwidth in bytes per ns (169 MB/s ~ 0.169). */
constexpr double mpiBytesPerNs = 0.169;

} // namespace timing

} // namespace cenju

#endif // CENJU_SIM_TIMING_HH
