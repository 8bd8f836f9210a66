/**
 * @file
 * Internal factory declarations for the 12 (program, variant)
 * kernels, plus small helpers shared by the grid apps.
 *
 * Each variant of BT, CG and FT lives in its own translation unit
 * written as the complete program a user would write against the
 * public API; the Figure 11(a) experiment diffs those files
 * textually, so they are deliberately self-contained rather than
 * factored. SP has no files of its own: makeNpbApp runs BT's
 * program with spPointWork.
 */

#ifndef CENJU_WORKLOAD_KERNELS_KERNELS_HH
#define CENJU_WORKLOAD_KERNELS_KERNELS_HH

#include <memory>

#include "workload/npb.hh"

namespace cenju
{
namespace kernels
{

std::unique_ptr<NpbApp> makeBtSeq(const NpbConfig &);
std::unique_ptr<NpbApp> makeBtMpi(const NpbConfig &);
std::unique_ptr<NpbApp> makeBtDsm1(const NpbConfig &);
std::unique_ptr<NpbApp> makeBtDsm2(const NpbConfig &);

std::unique_ptr<NpbApp> makeCgSeq(const NpbConfig &);
std::unique_ptr<NpbApp> makeCgMpi(const NpbConfig &);
std::unique_ptr<NpbApp> makeCgDsm1(const NpbConfig &);
std::unique_ptr<NpbApp> makeCgDsm2(const NpbConfig &);

std::unique_ptr<NpbApp> makeFtSeq(const NpbConfig &);
std::unique_ptr<NpbApp> makeFtMpi(const NpbConfig &);
std::unique_ptr<NpbApp> makeFtDsm1(const NpbConfig &);
std::unique_ptr<NpbApp> makeFtDsm2(const NpbConfig &);

/** Deterministic pseudo-random column index for CG's matrix. */
inline unsigned
cgColumn(unsigned row, unsigned k, unsigned n)
{
    std::uint64_t h =
        (std::uint64_t(row) * 0x9e3779b97f4a7c15ull) ^
        (std::uint64_t(k + 1) * 0xbf58476d1ce4e5b9ull);
    h ^= h >> 29;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 32;
    return static_cast<unsigned>(h % n);
}

/**
 * Per-point instruction weights, calibrated (with the scaled cache
 * of the application benches) so the parallel-efficiency ordering
 * of Figure 11(b) emerges: BT's block solves are the heaviest,
 * SP's scalar factorizations the lightest of the grid apps.
 */
constexpr unsigned btPointWork = 120;
constexpr unsigned spPointWork = 40;
constexpr unsigned ftPointWork = 500;
constexpr unsigned cgTermWork = 30;

} // namespace kernels
} // namespace cenju

#endif // CENJU_WORKLOAD_KERNELS_KERNELS_HH
