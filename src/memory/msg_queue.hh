/**
 * @file
 * Bounded FIFO message queue backed by main memory (paper sections
 * 3.3 and 3.4).
 *
 * Cenju-4 parks coherence messages in main-memory queues in three
 * places: the home's request queue (starvation prevention, 32 KB),
 * the slave module's input overflow (64 KB) and the home module's
 * output overflow (64 KB). All are plain FIFOs whose *capacity is
 * provably sufficient* (nodes x outstanding requests), so enqueue
 * never fails in a correctly sized system — but we keep the bound
 * and fail loudly, because the bound is the paper's claim.
 */

#ifndef CENJU_MEMORY_MSG_QUEUE_HH
#define CENJU_MEMORY_MSG_QUEUE_HH

#include <cstddef>
#include <string>
#include <utility>

#include "sim/logging.hh"
#include "sim/ring.hh"

namespace cenju
{

/** Bounded FIFO with a high-water mark, modelling a memory queue. */
template <typename T>
class MsgQueue
{
  public:
    /**
     * @param name for diagnostics
     * @param capacity maximum entries (0 = unbounded)
     */
    MsgQueue(std::string name, std::size_t capacity)
        : _name(std::move(name)), _capacity(capacity)
    {}

    bool empty() const { return _q.empty(); }
    std::size_t size() const { return _q.size(); }
    std::size_t capacity() const { return _capacity; }
    std::size_t highWater() const { return _highWater; }

    bool
    full() const
    {
        return _capacity != 0 && _q.size() >= _capacity;
    }

    /** Append; panics on overflow (the sizing theorem failed). */
    void
    push(T item)
    {
        if (full()) {
            panic("%s overflow: %zu entries", _name.c_str(),
                  _capacity);
        }
        _q.push_back(std::move(item));
        if (_q.size() > _highWater)
            _highWater = _q.size();
    }

    /**
     * Insert at position @p pos (0 = new head, size() = append),
     * panicking on overflow like push(). Policy backends that park
     * in priority order (src/policy/) use this; plain FIFO callers
     * keep using push().
     */
    void
    insertAt(std::size_t pos, T item)
    {
        if (full()) {
            panic("%s overflow: %zu entries", _name.c_str(),
                  _capacity);
        }
        if (pos > _q.size())
            panic("%s: insertAt(%zu) past tail %zu", _name.c_str(),
                  pos, _q.size());
        _q.insert(pos, std::move(item));
        if (_q.size() > _highWater)
            _highWater = _q.size();
    }

    /** Head element. @pre !empty() */
    T &
    front()
    {
        if (_q.empty())
            panic("%s: front() on empty queue", _name.c_str());
        return _q.front();
    }

    /** Remove the head. @pre !empty() */
    T
    pop()
    {
        if (_q.empty())
            panic("%s: pop() on empty queue", _name.c_str());
        T item = std::move(_q.front());
        _q.pop_front();
        return item;
    }

    const std::string &name() const { return _name; }

    /** Read-only view of the queued entries, head first (checker
     * introspection; the hardware cannot do this, the simulator
     * can). */
    const Ring<T> &items() const { return _q; }

  private:
    std::string _name;
    std::size_t _capacity;
    std::size_t _highWater = 0;
    Ring<T> _q;
};

} // namespace cenju

#endif // CENJU_MEMORY_MSG_QUEUE_HH
