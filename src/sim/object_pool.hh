/**
 * @file
 * Per-class freelist pooling for hot-path simulation objects.
 *
 * The coherence and message-passing engines allocate one packet per
 * hop/clone; at 1024 nodes that is millions of short-lived
 * allocations per simulated second. Pooled<T> gives a class its own
 * operator new/delete backed by a thread-local freelist, so each
 * packet kind recycles its own fixed-size blocks. Thread-local
 * storage keeps the pool safe under the stress --jobs thread pool,
 * where several single-threaded simulations run concurrently.
 *
 * The mixin composes with virtual destructors: deleting a
 * unique_ptr<Base> invokes the most-derived class's sized operator
 * delete, so blocks always return to the right freelist. Allocations
 * whose size does not match sizeof(T) (e.g. a further-derived test
 * subclass) transparently bypass the pool.
 */

#ifndef CENJU_SIM_OBJECT_POOL_HH
#define CENJU_SIM_OBJECT_POOL_HH

#include <cstddef>
#include <new>

namespace cenju
{

/**
 * CRTP mixin: `class CohPacket : public Packet, public
 * Pooled<CohPacket>`. Blocks are capped per thread so a burst does
 * not pin memory forever.
 */
template <typename T, std::size_t MaxFree = 4096>
class Pooled
{
  public:
    static void *
    operator new(std::size_t n)
    {
        if (n != sizeof(T))
            return ::operator new(n);
        FreeList &fl = freeList();
        if (fl.head) {
            FreeNode *p = fl.head;
            fl.head = p->next;
            --fl.count;
            return p;
        }
        return ::operator new(sizeof(T));
    }

    static void
    operator delete(void *p, std::size_t n)
    {
        if (!p)
            return;
        if (n != sizeof(T)) {
            ::operator delete(p);
            return;
        }
        FreeList &fl = freeList();
        if (fl.count >= MaxFree) {
            ::operator delete(p);
            return;
        }
        FreeNode *node = static_cast<FreeNode *>(p);
        node->next = fl.head;
        fl.head = node;
        ++fl.count;
    }

    /** Blocks currently cached on this thread's freelist. */
    static std::size_t
    pooledCount()
    {
        return freeList().count;
    }

    /** Release this thread's cached blocks back to the heap. */
    static void
    drainPool()
    {
        FreeList &fl = freeList();
        while (fl.head) {
            FreeNode *p = fl.head;
            fl.head = p->next;
            ::operator delete(p);
        }
        fl.count = 0;
    }

  private:
    struct FreeNode
    {
        FreeNode *next;
    };

    struct FreeList
    {
        FreeNode *head = nullptr;
        std::size_t count = 0;

        ~FreeList()
        {
            while (head) {
                FreeNode *p = head;
                head = p->next;
                ::operator delete(p);
            }
        }
    };

    static FreeList &
    freeList()
    {
        static_assert(sizeof(T) >= sizeof(FreeNode),
                      "pooled objects must fit a freelist link");
        thread_local FreeList fl;
        return fl;
    }
};

} // namespace cenju

#endif // CENJU_SIM_OBJECT_POOL_HH
