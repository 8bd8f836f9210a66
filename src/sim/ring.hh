/**
 * @file
 * Growable power-of-two ring: the one FIFO of the simulated path.
 *
 * Every simulated queue is a Ring: the crosspoint buffers, the
 * transports' injector and delivery queues, the node's output
 * queues, MsgQueue's storage and the protocol engines' parking
 * queues. An empty Ring is four words and owns no storage. The
 * first push allocates a few slots, every push into a full ring
 * doubles them, and the storage stays at the high-water mark until
 * the ring dies, so a queue allocates O(log high-water) times in
 * its life and never in steady state. libstdc++'s deque, by
 * contrast, allocates a 512-byte node and a map the moment it is
 * constructed, which at 1024 nodes was most of a system's
 * construction cost (docs/PERF.md).
 *
 * The ring has no bound of its own: every bounded queue checks its
 * bound before it pushes (XbarSwitch::reserve, the transports'
 * injectCapacity, MsgQueue::full). Growth relocates the elements,
 * so a push invalidates references into the ring (a deque's push
 * does not): across a push, callers hold an index or the pointee
 * of a pointer element, never a reference to a slot.
 */

#ifndef CENJU_SIM_RING_HH
#define CENJU_SIM_RING_HH

#include <cstddef>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>

namespace cenju
{

/** Unbounded FIFO over one power-of-two slot array. */
template <typename T>
class Ring
{
    static_assert(std::is_nothrow_move_constructible_v<T>,
                  "growth relocates elements by move");

    template <bool Const>
    class Iter
    {
        using RingT = std::conditional_t<Const, const Ring, Ring>;

      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;

        Iter() = default;
        Iter(RingT *r, std::size_t i) : _r(r), _i(i) {}

        reference operator*() const { return (*_r)[_i]; }

        Iter &
        operator++()
        {
            ++_i;
            return *this;
        }

        bool operator==(const Iter &o) const { return _i == o._i; }

      private:
        RingT *_r = nullptr;
        std::size_t _i = 0;
    };

  public:
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    Ring() noexcept = default;

    Ring(Ring &&o) noexcept
        : _slots(std::exchange(o._slots, nullptr)),
          _cap(std::exchange(o._cap, 0)),
          _head(std::exchange(o._head, 0)),
          _size(std::exchange(o._size, 0))
    {}

    Ring &
    operator=(Ring &&o) noexcept
    {
        if (this != &o) {
            release();
            _slots = std::exchange(o._slots, nullptr);
            _cap = std::exchange(o._cap, 0);
            _head = std::exchange(o._head, 0);
            _size = std::exchange(o._size, 0);
        }
        return *this;
    }

    Ring(const Ring &) = delete;
    Ring &operator=(const Ring &) = delete;

    ~Ring() { release(); }

    bool empty() const { return _size == 0; }
    std::size_t size() const { return _size; }

    /** Element @p i, counting from the head. @pre i < size() */
    T &operator[](std::size_t i) { return _slots[wrap(i)]; }
    const T &operator[](std::size_t i) const { return _slots[wrap(i)]; }

    /** @pre !empty() */
    T &front() { return _slots[_head]; }
    const T &front() const { return _slots[_head]; }

    /** Append @p v, doubling the slots when the ring is full. */
    void
    push_back(T v)
    {
        if (_size == _cap)
            grow();
        std::construct_at(_slots + wrap(_size), std::move(v));
        ++_size;
    }

    /** Destroy the head. @pre !empty() */
    void
    pop_front()
    {
        std::destroy_at(_slots + _head);
        _head = wrap(1);
        --_size;
    }

    /**
     * Insert @p v before element @p pos (0 = new head, size() =
     * append), shifting the tail back one place.
     * @pre pos <= size()
     */
    void
    insert(std::size_t pos, T v)
    {
        push_back(std::move(v));
        for (std::size_t i = _size - 1; i > pos; --i)
            std::swap((*this)[i - 1], (*this)[i]);
    }

    /**
     * Remove element @p pos, shifting the tail forward one place.
     * @pre pos < size()
     */
    void
    erase(std::size_t pos)
    {
        for (std::size_t i = pos; i + 1 < _size; ++i)
            (*this)[i] = std::move((*this)[i + 1]);
        std::destroy_at(_slots + wrap(_size - 1));
        --_size;
    }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, _size}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, _size}; }

  private:
    /** Slots of the first allocation. */
    static constexpr std::size_t initialSlots = 4;

    std::size_t
    wrap(std::size_t i) const
    {
        return (_head + i) & (_cap - 1);
    }

    void
    grow()
    {
        std::size_t cap = _cap ? 2 * _cap : initialSlots;
        T *slots = std::allocator<T>().allocate(cap);
        for (std::size_t i = 0; i < _size; ++i) {
            T *old = _slots + wrap(i);
            std::construct_at(slots + i, std::move(*old));
            std::destroy_at(old);
        }
        if (_slots)
            std::allocator<T>().deallocate(_slots, _cap);
        _slots = slots;
        _cap = cap;
        _head = 0;
    }

    void
    release()
    {
        if (!_slots)
            return;
        for (std::size_t i = 0; i < _size; ++i)
            std::destroy_at(_slots + wrap(i));
        std::allocator<T>().deallocate(_slots, _cap);
        _slots = nullptr;
        _cap = _head = _size = 0;
    }

    T *_slots = nullptr;
    std::size_t _cap = 0;
    std::size_t _head = 0;
    std::size_t _size = 0;
};

} // namespace cenju

#endif // CENJU_SIM_RING_HH
