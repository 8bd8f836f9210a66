/**
 * @file
 * BT and SP, sequential program (mini-kernel).
 *
 * The block-tridiagonal (BT) and scalar-pentadiagonal (SP) solvers
 * modelled as ADI-style line sweeps over a 3D grid: each time step
 * performs a dependent first-order recurrence along x, then y, then
 * z. The two differ only in per-point work (kernels.hh): BT's
 * characteristically heavy block work, or SP's lighter scalar
 * factorization, which makes communication and synchronization
 * relatively more expensive. This file is the baseline the
 * rewriting-ratio experiment diffs the parallel variants against.
 */

#include "workload/kernels/kernels.hh"

namespace cenju
{
namespace kernels
{
namespace
{

class BtSeq : public NpbApp
{
  public:
    explicit BtSeq(const NpbConfig &cfg) : _cfg(cfg) {}

    void
    setup(DsmSystem &sys) override
    {
        unsigned n = _cfg.grid;
        _u = sys.privAlloc(std::size_t(n) * n * n);
    }

    Task
    program(Env &env) override
    {
        const unsigned n = _cfg.grid;
        const unsigned work =
            _cfg.pointWork ? _cfg.pointWork : btPointWork;
        const unsigned z0 = 0, z1 = n;
        auto idx = [n, z0](unsigned x, unsigned y, unsigned z) {
            return (std::size_t(z - z0) * n + y) * n + x;
        };

        // Initialize the grid.
        for (unsigned z = z0; z < z1; ++z) {
            for (unsigned y = 0; y < n; ++y) {
                for (unsigned x = 0; x < n; ++x) {
                    double v = 1.0 + 0.01 * x + 0.02 * y + 0.03 * z;
                    co_await env.put(_u, idx(x, y, z), v);
                }
            }
        }

        for (unsigned iter = 0; iter < _cfg.iterations; ++iter) {
            // x sweep
            for (unsigned z = z0; z < z1; ++z) {
                for (unsigned y = 0; y < n; ++y) {
                    double carry = co_await env.get(_u, idx(0, y, z));
                    for (unsigned x = 1; x < n; ++x) {
                        double v = co_await env.get(_u, idx(x, y, z));
                        v = 0.5 * v + 0.5 * carry;
                        co_await env.compute(work);
                        co_await env.put(_u, idx(x, y, z), v);
                        carry = v;
                    }
                }
            }
            // y sweep
            for (unsigned z = z0; z < z1; ++z) {
                for (unsigned x = 0; x < n; ++x) {
                    double carry = co_await env.get(_u, idx(x, 0, z));
                    for (unsigned y = 1; y < n; ++y) {
                        double v = co_await env.get(_u, idx(x, y, z));
                        v = 0.5 * v + 0.5 * carry;
                        co_await env.compute(work);
                        co_await env.put(_u, idx(x, y, z), v);
                        carry = v;
                    }
                }
            }
            // z sweep
            for (unsigned y = 0; y < n; ++y) {
                for (unsigned x = 0; x < n; ++x) {
                    double carry = co_await env.get(_u, idx(x, y, 0));
                    for (unsigned z = 1; z < n; ++z) {
                        double v = co_await env.get(_u, idx(x, y, z));
                        v = 0.5 * v + 0.5 * carry;
                        co_await env.compute(work);
                        co_await env.put(_u, idx(x, y, z), v);
                        carry = v;
                    }
                }
            }
        }

        // Verification checksum.
        double sum = 0.0;
        for (unsigned z = z0; z < z1; ++z) {
            for (unsigned y = 0; y < n; ++y) {
                for (unsigned x = 0; x < n; ++x) {
                    sum += co_await env.get(_u, idx(x, y, z));
                }
            }
        }
        _sum = sum;
    }

    double checksum() const override { return _sum; }

  private:
    NpbConfig _cfg;
    PrivArray _u;
    double _sum = 0.0;
};

} // namespace

std::unique_ptr<NpbApp>
makeBtSeq(const NpbConfig &cfg)
{
    return std::make_unique<BtSeq>(cfg);
}

} // namespace kernels
} // namespace cenju
