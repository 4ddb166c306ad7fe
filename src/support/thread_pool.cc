#include "thread_pool.hh"

#include <atomic>
#include <cstdlib>
#include <map>

#include "support/decimal.hh"
#include "support/logging.hh"

namespace ddsc::support
{

unsigned
ThreadPool::hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
ThreadPool::defaultJobs()
{
    const char *value = std::getenv("DDSC_JOBS");
    if (!value)
        return hardwareJobs();
    const unsigned parsed = parseJobs(value);
    if (parsed == 0) {
        warn("ignoring DDSC_JOBS='%s' (want a positive integer)", value);
        return hardwareJobs();
    }
    return parsed;
}

unsigned
ThreadPool::parseJobs(const char *text)
{
    unsigned jobs = 0;
    return parseDecimal(text, jobs) ? jobs : 0;
}

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = threads == 0 ? defaultJobs() : threads;
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wakeWorkers_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::post(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ddsc_assert(!stopping_, "post() on a stopping ThreadPool");
        queue_.push_back(std::move(task));
    }
    wakeWorkers_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this]() {
        return queue_.empty() && active_ == 0;
    });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wakeWorkers_.wait(lock, [this]() {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return;     // stopping_ and nothing left to run
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        task();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --active_;
            if (queue_.empty() && active_ == 0)
                idle_.notify_all();
        }
    }
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (jobs <= 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex failures_mutex;
    std::map<std::size_t, std::exception_ptr> failures;

    auto drain = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            try {
                body(i);
            } catch (...) {
                std::unique_lock<std::mutex> lock(failures_mutex);
                failures.emplace(i, std::current_exception());
            }
        }
    };

    {
        const unsigned pool_jobs = static_cast<unsigned>(
            std::min<std::size_t>(jobs, n));
        ThreadPool pool(pool_jobs);
        for (unsigned j = 0; j < pool_jobs; ++j)
            pool.post(drain);
        pool.wait();
    }

    if (!failures.empty())
        std::rethrow_exception(failures.begin()->second);
}

} // namespace ddsc::support
