#include "thread_pool.hh"

#include <cstdlib>

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

} // namespace ddsc::support
