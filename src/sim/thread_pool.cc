/**
 * @file
 * Thread pool implementation.
 *
 * One mutex guards the task queue and pending_ (tasks submitted but
 * not yet finished, the wait() predicate); workers sleep on workReady_
 * until the queue is non-empty or the pool is stopping.
 */

#include "sim/thread_pool.hh"

#include <algorithm>

namespace dewrite {

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned count = std::max(1u, threads);
    workers_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard lock(mutex_);
        ++pending_;
        tasks_.push_back(std::move(task));
    }
    workReady_.notify_one();
}

void
ThreadPool::workerLoop()
{
    std::unique_lock lock(mutex_);
    for (;;) {
        workReady_.wait(lock,
                        [this] { return stopping_ || !tasks_.empty(); });
        if (tasks_.empty())
            return; // Stopping, and every queued task has been taken.
        std::function<void()> task = std::move(tasks_.front());
        tasks_.pop_front();
        lock.unlock();

        std::exception_ptr error;
        try {
            task();
        } catch (...) {
            error = std::current_exception();
        }
        task = nullptr; // Captures die before wait() can return.

        lock.lock();
        if (error && !firstError_)
            firstError_ = error;
        if (--pending_ == 0)
            allDone_.notify_all();
    }
}

void
ThreadPool::wait()
{
    std::unique_lock lock(mutex_);
    allDone_.wait(lock, [this] { return pending_ == 0; });
    if (firstError_) {
        std::exception_ptr error = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(error);
    }
}

} // namespace dewrite
