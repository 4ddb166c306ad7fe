/**
 * @file
 * A small fixed-size thread pool used to parallelize the experiment
 * matrix (each (workload, config, width) cell is an independent
 * LimitScheduler run over an immutable trace).
 *
 * Design notes:
 *  - submit() hands back a std::future so callers can collect results
 *    and exceptions per task; post() is the fire-and-forget variant.
 *  - wait() drains the queue *and* all in-flight tasks, after which
 *    the pool is reusable (the test suite exercises reuse-after-drain
 *    explicitly).
 */

#ifndef DDSC_SUPPORT_THREAD_POOL_HH
#define DDSC_SUPPORT_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ddsc::support
{

/**
 * Fixed set of worker threads consuming a FIFO task queue.
 */
class ThreadPool
{
  public:
    /** @param threads 0 = defaultJobs() (env DDSC_JOBS or hardware). */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins all workers; pending tasks are still executed. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Enqueue a fire-and-forget task. */
    void post(std::function<void()> task);

    /** Enqueue a task and get a future for its result / exception. */
    template <typename F>
    auto
    submit(F &&task) -> std::future<std::invoke_result_t<F>>
    {
        using Result = std::invoke_result_t<F>;
        auto packaged = std::make_shared<std::packaged_task<Result()>>(
            std::forward<F>(task));
        std::future<Result> future = packaged->get_future();
        post([packaged]() { (*packaged)(); });
        return future;
    }

    /** Block until the queue is empty and no task is running.  The
     *  pool stays usable afterwards. */
    void wait();

    /** max(1, std::thread::hardware_concurrency()). */
    static unsigned hardwareJobs();

    /** $DDSC_JOBS when set to a positive integer, else hardwareJobs().
     *  Malformed or zero values fall back to the hardware count. */
    static unsigned defaultJobs();

    /** @p text as a plain positive decimal, else 0 (a sign, trailing
     *  garbage, zero, or beyond unsigned).  $DDSC_JOBS and every
     *  tool's --jobs parse through it, so "-1" cannot wrap. */
    static unsigned parseJobs(const char *text);

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wakeWorkers_;
    std::condition_variable idle_;
    std::size_t active_ = 0;    ///< tasks currently executing
    bool stopping_ = false;
};

} // namespace ddsc::support

#endif // DDSC_SUPPORT_THREAD_POOL_HH
