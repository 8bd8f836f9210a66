/**
 * @file
 * Per-node program environment: the API workload coroutines program
 * against.
 *
 * Every operation is awaitable; the coroutine suspends until the
 * simulated machine completes it. Loads and stores go through the
 * master module (cache + coherence protocol); compute() charges
 * processor time; barrier()/allReduceSum() run on the message-
 * passing layer, as the paper's shared-memory library does; and
 * send()/recv() expose message passing directly for the mpi
 * program variants.
 */

#ifndef CENJU_CORE_ENV_HH
#define CENJU_CORE_ENV_HH

#include <bit>
#include <coroutine>
#include <type_traits>
#include <vector>

#include "core/mapping.hh"
#include "core/sync.hh"
#include "msgpass/msg_engine.hh"
#include "node/dsm_node.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "transport/combine.hh"

namespace cenju
{

/**
 * The awaitable every Env verb returns.
 *
 * await_suspend() stamps the start tick and runs @p Start, the
 * verb's one engine call, handing it a Done. Done captures only this
 * awaitable, which lives in the suspended coroutine's frame until the
 * program resumes, so it sits inline in every engine callback type.
 * When the engine calls it, the awaitable stores the result, charges
 * the elapsed simulated time to the verb's bucket and resumes the
 * program.
 */
template <typename T, typename Start>
class EnvOp
{
  public:
    /** The completion handed to the engine. */
    struct Done
    {
        EnvOp *op;

        void operator()() const { op->finish(); }

        template <typename V>
        void
        operator()(V v) const
        {
            // Typed double accessors receive the raw 64-bit word
            // the master module loaded.
            if constexpr (std::is_same_v<T, double> &&
                          std::is_same_v<V, std::uint64_t>)
                op->_result = std::bit_cast<double>(v);
            else
                op->_result = std::move(v);
            op->finish();
        }
    };

    // StoreCallback is also the type of MsgEngine::send's callback.
    static_assert(MasterModule::LoadCallback::fitsInline<Done>() &&
                      MasterModule::StoreCallback::fitsInline<Done>() &&
                      MsgEngine::RecvCallback::fitsInline<Done>() &&
                      EventQueue::Callback::fitsInline<Done>(),
                  "an Env completion must not heap-allocate "
                  "(docs/PERF.md)");

    /**
     * @param bucket Env time bucket the elapsed time is charged to,
     *        or nullptr
     */
    EnvOp(const EventQueue &eq, Counter *bucket, Start start)
        : _eq(eq), _bucket(bucket), _start(std::move(start))
    {}

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        _h = h;
        _t0 = _eq.now();
        _start(Done{this});
    }

    T
    await_resume()
    {
        if constexpr (!std::is_void_v<T>)
            return std::move(_result);
    }

  private:
    void
    finish()
    {
        if (_bucket)
            *_bucket += _eq.now() - _t0;
        _h.resume();
    }

    struct NoResult
    {};

    const EventQueue &_eq;
    Counter *_bucket;
    Start _start;
    std::coroutine_handle<> _h;
    Tick _t0 = 0;
    std::conditional_t<std::is_void_v<T>, NoResult, T> _result{};
};

/** One run's per-node accounting (aggregated into Tables 3/4). */
struct EnvStats
{
    Counter instructions;
    Counter memAccesses;
    // Simulated time (ns) spent awaiting each class of verb.
    Counter computeTime;
    Counter memTime;
    Counter syncTime;
    Counter commTime;
};

/** The per-node programming interface. */
class Env : public EnvStats
{
    /** Await @p start's engine call, charging its time to @p bucket. */
    template <typename T, typename Start>
    EnvOp<T, Start>
    issue(Counter *bucket, Start start)
    {
        return {_node.eq(), bucket, std::move(start)};
    }

    /** 64-bit load awaiting a @p T; one memory access instruction. */
    template <typename T>
    auto
    loadAs(Addr a)
    {
        ++instructions;
        ++memAccesses;
        return issue<T>(&memTime, [this, a](auto done) {
            _node.master().load(a, done);
        });
    }

  public:
    Env(DsmNode &node, MsgEngine &engine, SyncEngine &sync)
        : _node(node), _engine(engine), _sync(sync)
    {}

    NodeId id() const { return _node.id(); }
    unsigned numNodes() const { return _node.numNodes(); }
    Tick now() const { return _node.eq().now(); }

    // --- raw memory ------------------------------------------------

    /** 64-bit load; counts one memory access instruction. */
    auto load(Addr a) { return loadAs<std::uint64_t>(a); }

    /** 64-bit store; counts one memory access instruction. */
    auto
    store(Addr a, std::uint64_t v)
    {
        ++instructions;
        ++memAccesses;
        return issue<void>(&memTime, [this, a, v](auto done) {
            _node.master().store(a, v, done);
        });
    }

    // --- typed shared/private array access --------------------------

    /**
     * Load element @p i of a shared (ShmArray) or private (PrivArray)
     * array as a double. Both kinds read the same deliberately:
     * shared-memory programs read the same as private ones (the DSM
     * transparency the paper's rewriting-ratio experiment measures).
     */
    template <typename Array>
    auto
    get(const Array &arr, std::size_t i)
    {
        return loadAs<double>(arr.addrOf(i));
    }

    /** Store a double into a shared or private array. */
    template <typename Array>
    auto
    put(const Array &arr, std::size_t i, double v)
    {
        return store(arr.addrOf(i), bits(v));
    }

    auto
    getBits(const ShmArray &arr, std::size_t i)
    {
        return load(arr.addrOf(i));
    }

    auto
    putBits(const ShmArray &arr, std::size_t i, std::uint64_t v)
    {
        return store(arr.addrOf(i), v);
    }

    // --- bulk (DMA) transfers ----------------------------------------

    /**
     * Read @p count words of a private array starting at @p offset
     * as the controller's DMA engine would: coherent with the
     * cache, one fixed setup cost, no per-word processor
     * instructions (message payload bandwidth is charged by the
     * message-passing layer).
     */
    auto
    readRange(const PrivArray &arr, std::size_t offset,
              std::size_t count)
    {
        return issue<std::vector<std::uint64_t>>(
            nullptr, [this, arr, offset, count](auto done) {
                _node.eq().scheduleAfter(
                    dmaSetup, [this, arr, offset, count, done] {
                        done(dmaRead(arr, offset, count));
                    });
            });
    }

    /**
     * Write @p values into a private array at @p offset via DMA:
     * memory is updated and stale cached copies are invalidated.
     */
    auto
    writeRange(const PrivArray &arr, std::size_t offset,
               std::vector<std::uint64_t> values)
    {
        return issue<void>(
            nullptr, [this, arr, offset,
                      values = std::move(values)](auto done) mutable {
                _node.eq().scheduleAfter(
                    dmaSetup, [this, arr, offset,
                               values = std::move(values), done] {
                        dmaWrite(arr, offset, values);
                        done();
                    });
            });
    }

    /** DMA engine setup cost (ns). */
    static constexpr Tick dmaSetup = 1000;

    // --- computation -------------------------------------------------

    /** Execute @p instrs non-memory instructions. */
    auto
    compute(std::uint64_t instrs)
    {
        instructions += instrs;
        return issue<void>(&computeTime, [this, instrs](auto done) {
            Tick t = instrs * _node.timing().nsPerInstruction;
            _node.eq().scheduleAfter(t, done);
        });
    }

    // --- synchronization ----------------------------------------------

    auto
    barrier()
    {
        return issue<void>(&syncTime, [this](auto done) {
            _sync.barrier([this, done] {
                // A barrier is a phase boundary (src/policy/): the
                // phase-priority backend orders conflicting requests
                // by this epoch. Advancing it schedules nothing, so
                // the other backends are bit-identically unaffected.
                _node.policy().advanceEpoch();
                done();
            });
        });
    }

    auto
    allReduceSum(double v)
    {
        return issue<double>(&syncTime, [this, v](auto done) {
            _sync.allReduceSum(v, done);
        });
    }

    // --- combinable typed atomics (ROADMAP item 4) -------------------

    /**
     * Typed atomic on a combinable synchronization word allocated
     * with DsmSystem::shmAllocCombinable: the home applies the op
     * to memory and returns the pre-op value, and concurrent
     * requests to the same word may combine in flight (in the
     * switches, at a hardware station, or in per-node software
     * trees, depending on the transport backend). Counted as
     * synchronization time, like barriers.
     */
    auto
    atomic(Addr a, CombineOp op, std::uint64_t operand)
    {
        ++instructions;
        ++memAccesses;
        return issue<std::uint64_t>(
            &syncTime, [this, a, op, operand](auto done) {
                _node.master().atomicOp(a, op, operand, done);
            });
    }

    auto
    atomicFetchAdd(Addr a, std::uint64_t v)
    {
        return atomic(a, CombineOp::FetchAdd, v);
    }

    auto
    atomicMin(Addr a, std::uint64_t v)
    {
        return atomic(a, CombineOp::Min, v);
    }

    auto
    atomicMax(Addr a, std::uint64_t v)
    {
        return atomic(a, CombineOp::Max, v);
    }

    auto
    atomicSwap(Addr a, std::uint64_t v)
    {
        return atomic(a, CombineOp::Swap, v);
    }

    // --- message passing ------------------------------------------------

    /** Send; completes when the sender's processor is free. */
    auto
    send(NodeId dst, int tag, std::vector<std::uint64_t> payload,
         unsigned bytes = 0)
    {
        return issue<void>(
            &commTime, [this, dst, tag, payload = std::move(payload),
                        bytes](auto done) mutable {
                _engine.send(dst, tag, std::move(payload), bytes,
                             done);
            });
    }

    auto
    recv(NodeId src, int tag)
    {
        return issue<std::vector<std::uint64_t>>(
            &commTime, [this, src, tag](auto done) {
                _engine.recv(src, tag, done);
            });
    }

    // --- double <-> bits helpers ------------------------------------

    static std::uint64_t
    bits(double v)
    {
        return std::bit_cast<std::uint64_t>(v);
    }

    static double
    real(std::uint64_t b)
    {
        return std::bit_cast<double>(b);
    }

    /** When this node's program finished (0 while it runs). */
    Tick finishTick = 0;

  private:
    /** DMA read: cached words come from the cache, others memory. */
    std::vector<std::uint64_t>
    dmaRead(const PrivArray &arr, std::size_t offset,
            std::size_t count)
    {
        std::vector<std::uint64_t> out;
        out.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            Addr a = arr.addrOf(offset + i);
            const CacheLine *line = _node.cache().lookup(a);
            out.push_back(
                line ? line->data.w[(a & (blockBytes - 1)) / 8]
                     : _node.privateMem().readWord(
                           addr_map::offset(a)));
        }
        return out;
    }

    /**
     * DMA write. A cached line is written back before its word is
     * overwritten and the line invalidated (as MasterModule::evict
     * writes back a private line): its other Modified words live
     * only in the cache.
     */
    void
    dmaWrite(const PrivArray &arr, std::size_t offset,
             const std::vector<std::uint64_t> &values)
    {
        for (std::size_t i = 0; i < values.size(); ++i) {
            Addr a = arr.addrOf(offset + i);
            CacheLine *line = _node.cache().lookup(a);
            if (line && line->state == CacheState::Modified) {
                _node.privateMem().writeBlock(line->tag >> blockShift,
                                              line->data);
            }
            _node.privateMem().writeWord(addr_map::offset(a),
                                         values[i]);
            if (line)
                line->state = CacheState::Invalid;
        }
    }

    DsmNode &_node;
    MsgEngine &_engine;
    SyncEngine &_sync;
};

} // namespace cenju

#endif // CENJU_CORE_ENV_HH
