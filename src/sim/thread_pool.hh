/**
 * @file
 * A small work-stealing thread pool for the experiment runner.
 *
 * Each worker owns a deque of tasks: it pops from the back of its own
 * deque (LIFO, cache-warm) and steals from the front of a victim's
 * (FIFO, the oldest — and for experiment matrices the largest-grained
 * — work). Simulation cells are coarse (milliseconds to seconds), so
 * the per-deque mutex is never contended enough to matter; what the
 * stealing buys is load balance when cell costs are skewed, e.g. a
 * dup-heavy application finishing long before a unique-heavy one.
 *
 * The pool itself imposes no ordering, so determinism is the caller's
 * contract: tasks must not share mutable state, and each must write
 * its result to its own pre-assigned slot (see parallel_runner.hh).
 */

#ifndef DEWRITE_SIM_THREAD_POOL_HH
#define DEWRITE_SIM_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dewrite {

class ThreadPool
{
  public:
    /** Spawns @p threads workers (at least one). */
    explicit ThreadPool(unsigned threads);

    /** Joins all workers; outstanding tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueues @p task; may run on any worker, in any order. */
    void submit(std::function<void()> task);

    /**
     * Blocks until every submitted task has finished. If any task
     * threw, rethrows the first captured exception.
     */
    void wait();

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    struct WorkerQueue
    {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    void workerLoop(std::size_t self);
    bool tryRun(std::size_t self);

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    std::vector<std::thread> workers_;

    std::mutex mutex_; //!< Guards the fields below.
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    std::size_t pending_ = 0; //!< Submitted but not yet finished.
    std::size_t queued_ = 0;  //!< Sitting in a deque, not yet taken.
    std::size_t nextQueue_ = 0;
    bool stopping_ = false;
    std::exception_ptr firstError_;
};

} // namespace dewrite

#endif // DEWRITE_SIM_THREAD_POOL_HH
