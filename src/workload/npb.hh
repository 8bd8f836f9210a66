/**
 * @file
 * Mini-NPB workloads (paper section 4.2).
 *
 * The paper evaluates four NAS Parallel Benchmarks V2.3 Class A
 * applications — BT, CG, FT, SP — each in four program variants:
 *
 *  - seq:  the given sequential program;
 *  - mpi:  explicit message passing with manual decomposition;
 *  - dsm1: the seq program parallelized only on the outermost loop,
 *          all data left in shared memory;
 *  - dsm2: loop restructuring, owned partitions copied to private
 *          memory, shared arrays only for boundary/transpose data.
 *
 * We reproduce them as *mini-kernels with the same communication
 * and locality structure*, scaled so a 128-node run simulates in
 * seconds (a documented substitution — see DESIGN.md):
 *
 *  - BT/SP: ADI-style line sweeps over a 3D grid, one program
 *    that SP runs with less compute per point than BT;
 *  - CG: sparse matrix-vector products whose rows gather from
 *    pseudo-random locations of a distributed vector;
 *  - FT: per-slab transforms plus an all-to-all transpose.
 *
 * Each variant of BT, CG and FT lives in its own source file,
 * written as the full program a user would write, and SP runs BT's
 * files. The Figure 11(a) rewriting-ratio experiment diffs those
 * files against the seq variant with the textdiff library.
 */

#ifndef CENJU_WORKLOAD_NPB_HH
#define CENJU_WORKLOAD_NPB_HH

#include <array>
#include <functional>
#include <memory>
#include <string>

#include "core/dsm_system.hh"
#include "exec/task.hh"
#include "sim/text.hh"

namespace cenju
{

/** The four applications of the paper's evaluation. */
enum class AppKind
{
    BT,
    CG,
    FT,
    SP,
};

/** The four program variants of section 4.2.1. */
enum class Variant
{
    Seq,
    Mpi,
    Dsm1,
    Dsm2,
};

/** Application names, in enumerator order (sim/text.hh). */
constexpr auto
enumNames(AppKind)
{
    return std::array{"BT", "CG", "FT", "SP"};
}

/** Variant names, in enumerator order (sim/text.hh). */
constexpr auto
enumNames(Variant)
{
    return std::array{"seq", "mpi", "dsm1", "dsm2"};
}

/** nameOf() under its older names (perfbench/dsm_bench.cc). */
inline const char *
appKindName(AppKind k)
{
    return nameOf(k);
}

inline const char *
variantName(Variant v)
{
    return nameOf(v);
}

/** Scaled problem configuration. */
struct NpbConfig
{
    /** Grid edge for BT/FT/SP (points per dimension). */
    unsigned grid = 24;

    /** CG: unknowns and nonzeros per matrix row. */
    unsigned cgRows = 4096;
    unsigned cgNnzPerRow = 8;

    /** Outer iterations (time steps / CG iterations). */
    unsigned iterations = 2;

    /**
     * Per-point instruction weight; 0 means the application's
     * default from kernels.hh. For SP, makeNpbApp sets SP's weight
     * before it builds BT's program.
     */
    unsigned pointWork = 0;

    /**
     * Specify shared-data mappings (the non-dagger programs).
     * When false, shared arrays fall back to the default
     * block-round-robin placement.
     */
    bool dataMappings = true;
};

/** One instantiable application variant. */
class NpbApp
{
  public:
    virtual ~NpbApp() = default;

    /** Allocate this app's arrays on @p sys (once, pre-run). */
    virtual void setup(DsmSystem &sys) = 0;

    /** The SPMD per-node program. */
    virtual Task program(Env &env) = 0;

    /** Verification value (application-defined checksum). */
    virtual double checksum() const { return 0.0; }
};

/** Instantiate an application variant (SP: BT's program). */
std::unique_ptr<NpbApp> makeNpbApp(AppKind app, Variant variant,
                                   const NpbConfig &cfg);

/**
 * Convenience driver: setup + SPMD run.
 * @return the run's aggregated statistics
 */
RunStats runNpb(DsmSystem &sys, NpbApp &app);

/**
 * Path of the kernel source file implementing (app, variant),
 * BT's for SP — input to the rewriting-ratio experiment. Rooted at
 * the source tree (CENJU_SOURCE_DIR compile definition).
 */
std::string npbSourcePath(AppKind app, Variant variant);

} // namespace cenju

#endif // CENJU_WORKLOAD_NPB_HH
