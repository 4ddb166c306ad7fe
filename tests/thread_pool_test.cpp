/**
 * @file
 * Property-style coverage of ddsc::support::ThreadPool: results
 * independent of task ordering, exception propagation, zero-task
 * shutdown, oversubscription (far more tasks than threads), reuse
 * after a drain, and the DDSC_JOBS policy.
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
