/**
 * @file
 * ThreadPool unit tests (src/sim/thread_pool.hh).
 *
 * The pool carries both the sweep tools (stress --jobs, sweeprunner
 * bench) and the sharded engine's window workers (src/shard), so its
 * contract is pinned here: every submitted job runs exactly once,
 * wait() is a full barrier reusable across batches, a single-thread
 * pool preserves submission order, and the first exception of a
 * batch is rethrown from wait() without poisoning the pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "sim/thread_pool.hh"

using namespace cenju;

TEST(ThreadPool, RunsEveryJobExactlyOnce)
{
    ThreadPool pool(4);
    constexpr unsigned kJobs = 64;
    std::vector<std::atomic<unsigned>> ran(kJobs);
    for (unsigned i = 0; i < kJobs; ++i)
        pool.submit([&ran, i] { ++ran[i]; });
    pool.wait();
    for (unsigned i = 0; i < kJobs; ++i)
        EXPECT_EQ(ran[i].load(), 1u) << "job " << i;
}

TEST(ThreadPool, WaitWithNoJobsReturnsImmediately)
{
    ThreadPool pool(2);
    pool.wait(); // must not deadlock or throw
    pool.wait(); // idempotent
}

TEST(ThreadPool, ThreadCountResolved)
{
    EXPECT_EQ(ThreadPool(3).threadCount(), 3u);
    // 0 means "hardware concurrency", which is never reported as 0.
    EXPECT_GE(ThreadPool(0).threadCount(), 1u);
}

TEST(ThreadPool, SingleThreadPreservesSubmissionOrder)
{
    // The job queue is FIFO; with one worker that becomes a strict
    // execution order. The sweep tools' "--jobs 1 equals sequential"
    // claim rests on this.
    ThreadPool pool(1);
    std::vector<unsigned> order;
    for (unsigned i = 0; i < 32; ++i)
        pool.submit([&order, i] { order.push_back(i); });
    pool.wait();
    ASSERT_EQ(order.size(), 32u);
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    // The sharded engine submits one batch per simulation window —
    // thousands of wait() cycles on one pool.
    ThreadPool pool(3);
    std::atomic<unsigned> count{0};
    for (unsigned batch = 0; batch < 50; ++batch) {
        for (unsigned i = 0; i < 3; ++i)
            pool.submit([&count] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), (batch + 1) * 3);
    }
}

TEST(ThreadPool, ExceptionRethrownFromWait)
{
    ThreadPool pool(2);
    std::atomic<unsigned> ran{0};
    pool.submit([] { throw std::runtime_error("job failed"); });
    for (unsigned i = 0; i < 8; ++i)
        pool.submit([&ran] { ++ran; });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The rest of the batch still ran to completion.
    EXPECT_EQ(ran.load(), 8u);
}

TEST(ThreadPool, PoolUsableAfterException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("first batch"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);

    // The error was cleared by the rethrow; a clean batch works.
    std::atomic<unsigned> ran{0};
    for (unsigned i = 0; i < 4; ++i)
        pool.submit([&ran] { ++ran; });
    pool.wait();
    EXPECT_EQ(ran.load(), 4u);
}

TEST(ThreadPool, OnlyFirstExceptionSurfaces)
{
    ThreadPool pool(1);
    pool.submit([] { throw std::runtime_error("a"); });
    pool.submit([] { throw std::logic_error("b"); });
    // One throw per wait(); which type wins is completion order
    // (deterministic here: single worker, FIFO queue).
    EXPECT_THROW(pool.wait(), std::runtime_error);
    pool.wait(); // second error was dropped, not queued
}
