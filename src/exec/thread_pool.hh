/**
 * @file
 * Fixed-size worker-thread pool for fanning independent simulation
 * jobs across cores. The pool is deliberately minimal: FIFO task
 * queue, a wait() barrier, and an inline mode (zero workers) in which
 * submit() runs the task on the calling thread — so single-threaded
 * and multi-threaded executions share one code path and differ only
 * in scheduling, never in results.
 *
 * Tasks are expected to handle their own failures: SweepExecutor
 * catches a job's exception inside the task and reports it at its
 * wait() barrier. As a backstop, an exception that does escape a task is
 * caught by the pool and reported via UNISTC_PANIC with its message —
 * a deliberate, attributed abort instead of an opaque std::terminate
 * from a detached worker stack.
 */

#ifndef UNISTC_EXEC_THREAD_POOL_HH
#define UNISTC_EXEC_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace unistc
{

/** FIFO thread pool with a completion barrier. */
class ThreadPool
{
  public:
    /**
     * Start @p threads workers. 0 (or negative) means inline mode:
     * no threads are spawned and submit() executes immediately on
     * the caller.
     */
    explicit ThreadPool(int threads);

    /** Drains outstanding tasks, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task (or run it now in inline mode). */
    void submit(std::function<void()> task);

    /**
     * Block until every task submitted so far has finished. The
     * pool is reusable afterwards: more submit() calls may follow.
     */
    void wait();

    /** Worker threads owned by the pool (0 in inline mode). */
    int threadCount() const
    {
        return static_cast<int>(workers_.size());
    }

    /** Tasks submitted over the pool's lifetime. */
    std::uint64_t submitted() const;

    /** std::thread::hardware_concurrency with a floor of 1. */
    static int hardwareThreads();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex mu_;
    std::condition_variable workCv_; ///< Signals queued work / stop.
    std::condition_variable idleCv_; ///< Signals inFlight_ == 0.
    std::size_t inFlight_ = 0;       ///< Queued + currently running.
    std::uint64_t submitted_ = 0;
    bool stop_ = false;
};

} // namespace unistc

#endif // UNISTC_EXEC_THREAD_POOL_HH
