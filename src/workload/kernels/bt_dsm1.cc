/**
 * @file
 * BT and SP, dsm(1): the sequential program parallelized only on the
 * outermost loop of each sweep (paper section 4.2.1).
 *
 * The grid is simply declared shared instead of private — the loop
 * bodies are untouched. When data mappings are specified the array
 * is distributed in z-slabs so the x/y sweeps touch mostly local
 * shared memory; the z sweep (parallelized over its outermost
 * parallelizable loop, y) still walks every other node's slab with
 * the naive plane-striding line solves. Without mappings the array
 * falls back to block-round-robin placement and nearly all misses
 * are remote (Table 3's dagger rows).
 */

#include "workload/kernels/kernels.hh"

namespace cenju
{
namespace kernels
{
namespace
{

class BtDsm1 : public NpbApp
{
  public:
    explicit BtDsm1(const NpbConfig &cfg) : _cfg(cfg) {}

    void
    setup(DsmSystem &sys) override
    {
        unsigned n = _cfg.grid;
        if (sys.numNodes() > n)
            fatal("BT/SP dsm1: %u nodes exceed grid %u",
                  sys.numNodes(), n);
        Mapping map = _cfg.dataMappings ? Mapping::blocked()
                                        : Mapping::blockCyclic();
        _u = sys.shmAlloc(std::size_t(n) * n * n, map);
    }

    Task
    program(Env &env) override
    {
        const unsigned n = _cfg.grid;
        const unsigned work =
            _cfg.pointWork ? _cfg.pointWork : btPointWork;
        const unsigned p = env.numNodes();
        const NodeId me = env.id();
        const unsigned z0 = me * n / p, z1 = (me + 1) * n / p;
        const unsigned y0 = me * n / p, y1 = (me + 1) * n / p;
        auto idx = [n](unsigned x, unsigned y, unsigned z) {
            return (std::size_t(z) * n + y) * n + x;
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
        co_await env.barrier();

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
            co_await env.barrier();
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
            co_await env.barrier();
            // z sweep
            for (unsigned y = y0; y < y1; ++y) {
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
            co_await env.barrier();
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
        double total = co_await env.allReduceSum(sum);
        if (env.id() == 0)
            _sum = total;
    }

    double checksum() const override { return _sum; }

  private:
    NpbConfig _cfg;
    ShmArray _u;
    double _sum = 0.0;
};

} // namespace

std::unique_ptr<NpbApp>
makeBtDsm1(const NpbConfig &cfg)
{
    return std::make_unique<BtDsm1>(cfg);
}

} // namespace kernels
} // namespace cenju
