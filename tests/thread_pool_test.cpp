/**
 * @file
 * Property-style coverage of ddsc::support::ThreadPool and
 * parallelFor: results independent of task ordering, exception
 * propagation, zero-task shutdown, oversubscription (far more tasks
 * than threads), reuse after a drain, and the DDSC_JOBS policy.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/thread_pool.hh"

namespace ddsc::support
{
namespace
{

/** RAII save/restore of one environment variable. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            saved_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_.c_str(), saved_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string saved_;
    bool had_;
};

TEST(ThreadPool, ZeroTaskShutdown)
{
    // Construction and immediate destruction with nothing queued must
    // not hang or crash, for any thread count.
    for (const unsigned n : {1u, 2u, 8u}) {
        ThreadPool pool(n);
        EXPECT_EQ(pool.size(), n);
    }
}

TEST(ThreadPool, WaitWithNoTasksReturnsImmediately)
{
    ThreadPool pool(4);
    pool.wait();
    pool.wait();    // idempotent
}

TEST(ThreadPool, SubmitReturnsValues)
{
    ThreadPool pool(3);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 20; ++i)
        futures.push_back(pool.submit([i]() { return i * i; }));
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto future = pool.submit([]() -> int {
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(future.get(), std::runtime_error);
    // The worker survives the throwing task.
    EXPECT_EQ(pool.submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPool, OversubscriptionRunsEveryTask)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 500; ++i)
        pool.post([&count]() { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, ReuseAfterDrain)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 50; ++i)
            pool.post([&count]() { count.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(count.load(), (round + 1) * 50);
    }
}

TEST(ThreadPool, DestructorRunsPendingTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 32; ++i) {
            pool.post([&count]() {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                count.fetch_add(1);
            });
        }
    }
    EXPECT_EQ(count.load(), 32);
}

TEST(ParallelFor, ResultsIndependentOfOrdering)
{
    // Each index writes a pure function of itself; jittered sleeps
    // shuffle completion order, the result must not care.
    const std::size_t n = 200;
    std::vector<std::uint64_t> expected(n);
    for (std::size_t i = 0; i < n; ++i)
        expected[i] = i * i + 17;

    for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
        std::vector<std::uint64_t> got(n, 0);
        parallelFor(n, jobs, [&got](std::size_t i) {
            if (i % 7 == 0) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(20 * (i % 5)));
            }
            got[i] = i * i + 17;
        });
        EXPECT_EQ(got, expected) << "jobs=" << jobs;
    }
}

TEST(ParallelFor, ZeroAndSingleIndex)
{
    int calls = 0;
    parallelFor(0, 4, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(1, 4, [&calls](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, MoreJobsThanIndices)
{
    std::atomic<int> count{0};
    parallelFor(3, 16, [&count](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 3);
}

TEST(ParallelFor, RethrowsLowestIndexException)
{
    // Two indices throw; all other work still runs, and the rethrown
    // exception is deterministically the lowest index's.
    std::atomic<int> completed{0};
    try {
        parallelFor(64, 4, [&completed](std::size_t i) {
            if (i == 9)
                throw std::runtime_error("index 9");
            if (i == 41)
                throw std::runtime_error("index 41");
            completed.fetch_add(1);
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "index 9");
    }
    EXPECT_EQ(completed.load(), 62);
}

TEST(ParallelFor, ConcurrentThrowsSurfaceLowestIndex)
{
    // The exception-ordering contract (thread_pool.hh): when several
    // indices throw, the lowest index's exception is rethrown no
    // matter which worker threw first.  A spin barrier makes the two
    // throwers release as close to simultaneously as the scheduler
    // allows, and the loop gives a wrong implementation (e.g. "first
    // throw wins") many chances to surface index 5's exception.
    for (int round = 0; round < 25; ++round) {
        std::atomic<int> at_barrier{0};
        std::atomic<int> completed{0};
        try {
            parallelFor(8, 2, [&](std::size_t i) {
                if (i == 3 || i == 5) {
                    at_barrier.fetch_add(1);
                    while (at_barrier.load() < 2) {
                        // spin: both throwers release together
                    }
                    throw std::runtime_error("index " +
                                             std::to_string(i));
                }
                completed.fetch_add(1);
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "index 3") << "round " << round;
        }
        // The contract also promises a full drain before the rethrow.
        EXPECT_EQ(completed.load(), 6) << "round " << round;
    }
}

TEST(ParallelFor, SerialPathPropagatesException)
{
    EXPECT_THROW(
        parallelFor(4, 1, [](std::size_t i) {
            if (i == 2)
                throw std::logic_error("serial");
        }),
        std::logic_error);
}

TEST(Jobs, HardwareJobsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareJobs(), 1u);
}

TEST(Jobs, DefaultJobsHonoursEnv)
{
    ScopedEnv env("DDSC_JOBS", "3");
    EXPECT_EQ(ThreadPool::defaultJobs(), 3u);
}

TEST(Jobs, DefaultJobsRejectsGarbage)
{
    {
        ScopedEnv env("DDSC_JOBS", "zippy");
        EXPECT_EQ(ThreadPool::defaultJobs(), ThreadPool::hardwareJobs());
    }
    {
        ScopedEnv env("DDSC_JOBS", "0");
        EXPECT_EQ(ThreadPool::defaultJobs(), ThreadPool::hardwareJobs());
    }
    {
        ScopedEnv env("DDSC_JOBS", "4x");
        EXPECT_EQ(ThreadPool::defaultJobs(), ThreadPool::hardwareJobs());
    }
    {
        // strtoul would wrap this to 4,294,967,295 workers.
        ScopedEnv env("DDSC_JOBS", "-1");
        EXPECT_EQ(ThreadPool::defaultJobs(), ThreadPool::hardwareJobs());
    }
    {
        ScopedEnv env("DDSC_JOBS", nullptr);
        EXPECT_EQ(ThreadPool::defaultJobs(), ThreadPool::hardwareJobs());
    }
}

TEST(Jobs, PoolUsesDefaultWhenZero)
{
    ScopedEnv env("DDSC_JOBS", "2");
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 2u);
}

} // anonymous namespace
} // namespace ddsc::support
