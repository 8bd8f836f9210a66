/**
 * @file
 * Synchronization and reduction over message passing.
 *
 * The paper's shared-memory programs "use MPI library for
 * performing synchronization and reduction operations"; we do the
 * same: barriers and all-reduces run as binary-tree exchanges on
 * the MsgEngine layer, so their cost scales as
 * O(log N x message latency) and is charged to the calling node as
 * synchronization time (Table 4's sync column).
 */

#ifndef CENJU_CORE_SYNC_HH
#define CENJU_CORE_SYNC_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "msgpass/msg_engine.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace cenju
{

/** Per-node barrier/reduction engine (binary combining tree). */
class SyncEngine
{
  public:
    /**
     * @param engines one MsgEngine per node (shared by all
     *        SyncEngine instances)
     * @param id this node
     */
    SyncEngine(std::vector<std::unique_ptr<MsgEngine>> &engines,
               NodeId id)
        : _engines(engines), _id(id)
    {}

    /** Join the next barrier; @p done fires when it is released. */
    void
    barrier(InlineFunction<void(), 40> done)
    {
        int gen = _barrierGen++;
        reduceImpl(gen, 0.0, tagBarrier,
                   [done = std::move(done)](double) mutable { done(); });
    }

    /** Global sum; every node receives the total. */
    void
    allReduceSum(double value, InlineFunction<void(double)> done)
    {
        int gen = _reduceGen++;
        reduceImpl(gen, value, tagReduce, std::move(done));
    }

  private:
    static constexpr int tagBarrier = 1 << 24;
    static constexpr int tagReduce = 2 << 24;

    unsigned
    numNodes() const
    {
        return static_cast<unsigned>(_engines.size());
    }

    MsgEngine &engine() { return *_engines[_id]; }

    /**
     * Binary-tree combine toward node 0, then broadcast the result
     * down. Tags encode the primitive and generation so successive
     * operations never cross-match.
     */
    void
    reduceImpl(int gen, double value, int tag_base,
               InlineFunction<void(double)> done)
    {
        unsigned n = numNodes();
        NodeId left = 2 * _id + 1;
        NodeId right = 2 * _id + 2;
        int up_tag = tag_base + 2 * gen;
        int down_tag = tag_base + 2 * gen + 1;

        _op.value = value;
        _op.pendingChildren = (left < n) + (right < n);
        _op.done = std::move(done);

        for (NodeId child : {left, right}) {
            if (child >= n)
                continue;
            engine().recv(child, up_tag,
                          [this, up_tag,
                           down_tag](std::vector<std::uint64_t> p) {
                              _op.value +=
                                  std::bit_cast<double>(p[0]);
                              --_op.pendingChildren;
                              proceed(up_tag, down_tag);
                          });
        }
        proceed(up_tag, down_tag);
    }

    /** Once every child reported, pass the partial sum up. */
    void
    proceed(int up_tag, int down_tag)
    {
        if (_op.pendingChildren > 0)
            return;
        if (_id == 0) {
            finish(_op.value, down_tag);
            return;
        }
        NodeId parent = (_id - 1) / 2;
        engine().send(parent, up_tag,
                      {std::bit_cast<std::uint64_t>(_op.value)}, 8,
                      [this, parent, down_tag] {
                          // Wait for the broadcast result.
                          engine().recv(
                              parent, down_tag,
                              [this, down_tag](
                                  std::vector<std::uint64_t> p) {
                                  finish(
                                      std::bit_cast<double>(p[0]),
                                      down_tag);
                              });
                      });
    }

    /** Broadcast @p total down the tree and complete this node. */
    void
    finish(double total, int down_tag)
    {
        broadcastDown(total, down_tag);
        // The completion resumes the program, which may start the
        // next operation and refill _op: move it out first.
        InlineFunction<void(double)> done = std::move(_op.done);
        done(total);
    }

    void
    broadcastDown(double total, int down_tag)
    {
        unsigned n = numNodes();
        for (NodeId child : {2 * _id + 1, 2 * _id + 2}) {
            if (child < n) {
                engine().send(child, down_tag,
                              {std::bit_cast<std::uint64_t>(total)},
                              8, [] {});
            }
        }
    }

    /**
     * The barrier or reduction in flight. A node has at most one:
     * its single program awaits each before starting the next.
     * done keeps the default 64-byte inline window so a barrier's
     * wrapped 48-byte completion fits without a heap box.
     */
    struct CombineState
    {
        double value = 0.0;
        int pendingChildren = 0;
        InlineFunction<void(double)> done;
    };

    std::vector<std::unique_ptr<MsgEngine>> &_engines;
    NodeId _id;
    int _barrierGen = 0;
    int _reduceGen = 0;
    CombineState _op;
};

} // namespace cenju

#endif // CENJU_CORE_SYNC_HH
