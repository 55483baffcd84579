/**
 * @file
 * A small thread pool for the experiment runner and the service.
 *
 * Workers take tasks from one FIFO queue under one mutex — the same
 * mutex submit() and every completion already take for the pending
 * count. Tasks are coarse (simulation cells of milliseconds to seconds,
 * per-shard drain rounds), so the lock is never contended enough to
 * matter, and an idle worker always takes the next task, which keeps
 * the load balanced when task costs are skewed, e.g. a dup-heavy
 * application finishing long before a unique-heavy one.
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
    void workerLoop();

    std::mutex mutex_; //!< Guards the task queue, count and flags.
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    std::deque<std::function<void()>> tasks_; //!< Not yet taken.
    std::size_t pending_ = 0; //!< Submitted but not yet finished.
    bool stopping_ = false;
    std::exception_ptr firstError_;

    /** Last: the workers use every member above. */
    std::vector<std::thread> workers_;
};

} // namespace dewrite

#endif // DEWRITE_SIM_THREAD_POOL_HH
