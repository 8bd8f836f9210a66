/**
 * @file
 * BT and SP, MPI program: explicit message passing with a manual slab
 * decomposition. All grid data is private; the z-sweep coupling
 * plane is packed into an explicit message, shipped to the next
 * rank and unpacked there each time step — the communication code
 * the shared-memory variants never have to write.
 */

#include "workload/kernels/kernels.hh"

namespace cenju
{
namespace kernels
{
namespace
{

constexpr int tagPlane = 100;

class BtMpi : public NpbApp
{
  public:
    explicit BtMpi(const NpbConfig &cfg) : _cfg(cfg) {}

    void
    setup(DsmSystem &sys) override
    {
        unsigned n = _cfg.grid;
        unsigned p = sys.numNodes();
        if (p > n)
            fatal("BT/SP mpi: %u nodes exceed grid %u", p, n);
        std::size_t slab = std::size_t((n + p - 1) / p + 1) * n * n;
        _u = sys.privAlloc(slab);
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
            // Pack the slab's top plane and ship it to the next
            // rank; receive the previous rank's plane.
            if (me + 1 < p) {
                std::vector<std::uint64_t> plane;
                plane.reserve(std::size_t(n) * n);
                for (unsigned y = 0; y < n; ++y) {
                    for (unsigned x = 0; x < n; ++x) {
                        double v =
                            co_await env.get(_u, idx(x, y, z1 - 1));
                        plane.push_back(Env::bits(v));
                    }
                }
                co_await env.send(me + 1, tagPlane,
                                  std::move(plane));
            }
            std::vector<std::uint64_t> prev;
            if (me > 0)
                prev = co_await env.recv(me - 1, tagPlane);
            // z sweep
            for (unsigned y = 0; y < n; ++y) {
                for (unsigned x = 0; x < n; ++x) {
                    double carry;
                    if (me == 0) {
                        carry = co_await env.get(_u, idx(x, y, 0));
                    } else {
                        carry = Env::real(
                            prev[std::size_t(y) * n + x]);
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
    double _sum = 0.0;
};

} // namespace

std::unique_ptr<NpbApp>
makeBtMpi(const NpbConfig &cfg)
{
    return std::make_unique<BtMpi>(cfg);
}

} // namespace kernels
} // namespace cenju
