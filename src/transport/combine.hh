/**
 * @file
 * Typed combining algebra shared by every transport backend and the
 * protocol's atomic-op path (NYU Ultracomputer lineage; ROADMAP
 * item 4). One associative apply() covers all three places a
 * combinable operation is evaluated:
 *
 *  - merge: two requests meeting in the fabric fold their operands
 *    into one (`merged = apply(op, repOperand, absorbedOperand)`);
 *  - home: the memory word is updated once per *merged* packet
 *    (`old = M; M = apply(op, M, accum)`), and `old` rides back as
 *    the reply base value;
 *  - decombine: each absorbed requester's reply is reconstructed
 *    stage-by-stage as `apply(op, replyBase, prefix)`, where
 *    `prefix` is the representative's accumulated operand captured
 *    at merge time.
 *
 * The scheme realizes the serialization "rep first, then absorbed in
 * merge order" at every nesting level, so combined execution is
 * bit-identical to some uncombined serial order for all four ops
 * (Swap included: apply(a, b) = b makes the prefix rule hand each
 * absorbed requester the previous swapper's value).
 */

#ifndef CENJU_TRANSPORT_COMBINE_HH
#define CENJU_TRANSPORT_COMBINE_HH

#include <array>
#include <cstdint>

#include "sim/text.hh"

namespace cenju
{

/** Typed reduction ops the fabric knows how to combine. */
enum class CombineOp : std::uint8_t
{
    FetchAdd, ///< returns old value, adds operand
    Min,      ///< returns old value, stores min(old, operand)
    Max,      ///< returns old value, stores max(old, operand)
    Swap,     ///< returns old value, stores operand
};

/** Op names, in enumerator order (sim/text.hh). */
constexpr auto
enumNames(CombineOp)
{
    return std::array{"fetch-add", "min", "max", "swap"};
}

/**
 * The single associative fold used for merge, home application, and
 * decombine alike (see file comment for why one function suffices).
 */
constexpr std::uint64_t
combineApply(CombineOp op, std::uint64_t prior, std::uint64_t operand)
{
    switch (op) {
      case CombineOp::FetchAdd: return prior + operand;
      case CombineOp::Min: return operand < prior ? operand : prior;
      case CombineOp::Max: return operand > prior ? operand : prior;
      case CombineOp::Swap: return operand;
    }
    return prior;
}

} // namespace cenju

#endif // CENJU_TRANSPORT_COMBINE_HH
