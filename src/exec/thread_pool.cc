#include "exec/thread_pool.hh"

#include <exception>
#include <utility>

#include "common/logging.hh"

namespace unistc
{

namespace
{

/**
 * Backstop for exceptions escaping a task: turn them into an
 * attributed panic instead of std::terminate with no context.
 * SweepExecutor catches a job's exception inside the task and never
 * reaches this.
 */
void
runTask(const std::function<void()> &task)
{
    try {
        task();
    } catch (const std::exception &e) {
        UNISTC_PANIC("unhandled exception escaped a ThreadPool task: ",
                     e.what());
    } catch (...) {
        UNISTC_PANIC("unhandled non-std exception escaped a "
                     "ThreadPool task");
    }
}

} // namespace

ThreadPool::ThreadPool(int threads)
{
    if (threads < 0)
        threads = 0;
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (workers_.empty()) {
        // Inline mode: execute on the caller, same FIFO order a
        // single worker would use.
        {
            std::unique_lock<std::mutex> lock(mu_);
            ++submitted_;
        }
        runTask(task);
        return;
    }
    {
        std::unique_lock<std::mutex> lock(mu_);
        queue_.push_back(std::move(task));
        ++inFlight_;
        ++submitted_;
    }
    workCv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    idleCv_.wait(lock, [this] { return inFlight_ == 0; });
}

std::uint64_t
ThreadPool::submitted() const
{
    std::unique_lock<std::mutex> lock(mu_);
    return submitted_;
}

int
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workCv_.wait(lock, [this] {
                return stop_ || !queue_.empty();
            });
            if (queue_.empty()) {
                // stop_ set and nothing left to run.
                return;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        runTask(task);
        {
            std::unique_lock<std::mutex> lock(mu_);
            if (--inFlight_ == 0)
                idleCv_.notify_all();
        }
    }
}

} // namespace unistc
