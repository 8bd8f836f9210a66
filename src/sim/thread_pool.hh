/**
 * @file
 * Host-side worker pool for embarrassingly parallel sweeps.
 *
 * Each simulated system is strictly single-threaded; sweeps over
 * independent configurations (stress seeds, figure benches) are
 * trivially parallel. ThreadPool runs such jobs across hardware
 * threads. Results stay deterministic because jobs share nothing:
 * callers collect per-job outputs and order them after wait().
 */

#ifndef CENJU_SIM_THREAD_POOL_HH
#define CENJU_SIM_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cenju
{

/** Fixed-size pool; submit() enqueues, wait() drains. */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 = hardware concurrency */
    explicit ThreadPool(unsigned threads = 0)
    {
        if (threads == 0) {
            threads = std::thread::hardware_concurrency();
            if (threads == 0)
                threads = 1;
        }
        _workers.reserve(threads);
        for (unsigned i = 0; i < threads; ++i)
            _workers.emplace_back([this] { workerLoop(); });
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lk(_mu);
            _stopping = true;
        }
        _wake.notify_all();
        for (auto &w : _workers)
            w.join();
    }

    unsigned threadCount() const
    {
        return static_cast<unsigned>(_workers.size());
    }

    /** Enqueue a job; runs on some worker thread. */
    void
    // cenju-lint: allow(A002): host-side sweep pool; a job is an
    // entire single-threaded simulation, not a per-event closure,
    // so std::function's copyability/allocation cost is off the
    // simulated hot path by construction.
    submit(std::function<void()> job)
    {
        {
            std::lock_guard<std::mutex> lk(_mu);
            _jobs.push_back(std::move(job));
            ++_outstanding;
        }
        _wake.notify_one();
    }

    /**
     * Block until every submitted job has finished. If any job threw,
     * the first exception (in completion order) is rethrown here and
     * cleared, so the pool stays usable for the next batch; the
     * remaining jobs of the batch still ran to completion.
     */
    void
    wait()
    {
        std::unique_lock<std::mutex> lk(_mu);
        _idle.wait(lk, [this] { return _outstanding == 0; });
        if (_pendingError) {
            std::exception_ptr e = _pendingError;
            _pendingError = nullptr;
            lk.unlock();
            std::rethrow_exception(e);
        }
    }

  private:
    void
    workerLoop()
    {
        for (;;) {
            // cenju-lint: allow(A002): see submit() — host-side.
            std::function<void()> job;
            {
                std::unique_lock<std::mutex> lk(_mu);
                _wake.wait(lk, [this] {
                    return _stopping || !_jobs.empty();
                });
                if (_jobs.empty())
                    return; // stopping and drained
                job = std::move(_jobs.front());
                _jobs.pop_front();
            }
            std::exception_ptr error;
            try {
                job();
            } catch (...) {
                error = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lk(_mu);
                if (error && !_pendingError)
                    _pendingError = error;
                if (--_outstanding == 0)
                    _idle.notify_all();
            }
        }
    }

    std::mutex _mu;
    std::condition_variable _wake;
    std::condition_variable _idle;
    // cenju-lint: allow(A002): see submit() — host-side queue.
    // cenju-lint: allow(A006): host-side job queue of the sweep
    // runner, outside any simulation's event loop.
    std::deque<std::function<void()>> _jobs;
    std::size_t _outstanding = 0;
    std::exception_ptr _pendingError;
    bool _stopping = false;
    std::vector<std::thread> _workers;
};

} // namespace cenju

#endif // CENJU_SIM_THREAD_POOL_HH
