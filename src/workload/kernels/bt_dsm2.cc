/**
 * @file
 * BT and SP, dsm(2): the tuned shared-memory program (paper section
 * 4.2.1): the grid is divided and each node's slab mapped into
 * private memory; only the z-sweep coupling plane travels through
 * a small shared array (published after the y sweep, bulk-copied
 * privately before the z sweep). The sweep bodies themselves are
 * the sequential code.
 */

#include "workload/kernels/kernels.hh"

namespace cenju
{
namespace kernels
{
namespace
{

class BtDsm2 : public NpbApp
{
  public:
    explicit BtDsm2(const NpbConfig &cfg) : _cfg(cfg) {}

    void
    setup(DsmSystem &sys) override
    {
        unsigned n = _cfg.grid;
        unsigned p = sys.numNodes();
        if (p > n)
            fatal("BT/SP dsm2: %u nodes exceed grid %u", p, n);
        std::size_t slab = std::size_t((n + p - 1) / p + 1) * n * n;
        _u = sys.privAlloc(slab);
        _bp = sys.privAlloc(std::size_t(n) * n);
        Mapping map = _cfg.dataMappings ? Mapping::blocked()
                                        : Mapping::blockCyclic();
        _bnd = sys.shmAlloc(std::size_t(p) * n * n, map);
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
            // Publish the slab's top plane, then bulk-copy the
            // previous node's plane into private memory.
            for (unsigned y = 0; y < n; ++y) {
                for (unsigned x = 0; x < n; ++x) {
                    double v = co_await env.get(_u, idx(x, y, z1 - 1));
                    co_await env.put(
                        _bnd, (std::size_t(me) * n + y) * n + x, v);
                }
            }
            co_await env.barrier();
            if (me > 0) {
                for (unsigned y = 0; y < n; ++y) {
                    for (unsigned x = 0; x < n; ++x) {
                        double v = co_await env.get(
                            _bnd,
                            (std::size_t(me - 1) * n + y) * n + x);
                        co_await env.put(
                            _bp, std::size_t(y) * n + x, v);
                    }
                }
            }
            // z sweep
            for (unsigned y = 0; y < n; ++y) {
                for (unsigned x = 0; x < n; ++x) {
                    double carry;
                    if (me == 0) {
                        carry = co_await env.get(_u, idx(x, y, 0));
                    } else {
                        carry = co_await env.get(
                            _bp, std::size_t(y) * n + x);
                    }
                    for (unsigned z = (me == 0 ? z0 + 1 : z0);
                         z < z1; ++z) {
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
    PrivArray _u;
    PrivArray _bp;
    ShmArray _bnd;
    double _sum = 0.0;
};

} // namespace

std::unique_ptr<NpbApp>
makeBtDsm2(const NpbConfig &cfg)
{
    return std::make_unique<BtDsm2>(cfg);
}

} // namespace kernels
} // namespace cenju
