/**
 * @file
 * Work-stealing thread pool implementation.
 *
 * Two counters drive the synchronization: queued_ (tasks sitting in
 * some deque, the workers' wake predicate) and pending_ (tasks
 * submitted but not yet finished, the wait() predicate). Both live
 * under the central mutex; the per-worker deques have their own locks
 * so the steal scan never serializes on the central one.
 */

#include "sim/thread_pool.hh"

#include <algorithm>

namespace dewrite {

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned count = std::max(1u, threads);
    queues_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    workers_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
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
    std::size_t target;
    {
        std::lock_guard lock(mutex_);
        ++pending_;
        ++queued_;
        target = nextQueue_;
        nextQueue_ = (nextQueue_ + 1) % queues_.size();
    }
    {
        std::lock_guard lock(queues_[target]->mutex);
        queues_[target]->tasks.push_back(std::move(task));
    }
    workReady_.notify_one();
}

bool
ThreadPool::tryRun(std::size_t self)
{
    std::function<void()> task;

    // Own queue first, newest task (still-warm working set) ...
    {
        WorkerQueue &mine = *queues_[self];
        std::lock_guard lock(mine.mutex);
        if (!mine.tasks.empty()) {
            task = std::move(mine.tasks.back());
            mine.tasks.pop_back();
        }
    }
    // ... then steal the oldest task of the first non-empty victim.
    if (!task) {
        for (std::size_t step = 1; step < queues_.size() && !task;
             ++step) {
            WorkerQueue &victim =
                *queues_[(self + step) % queues_.size()];
            std::lock_guard lock(victim.mutex);
            if (!victim.tasks.empty()) {
                task = std::move(victim.tasks.front());
                victim.tasks.pop_front();
            }
        }
    }
    if (!task)
        return false;

    {
        std::lock_guard lock(mutex_);
        --queued_;
    }

    try {
        task();
    } catch (...) {
        std::lock_guard lock(mutex_);
        if (!firstError_)
            firstError_ = std::current_exception();
    }

    {
        std::lock_guard lock(mutex_);
        if (--pending_ == 0)
            allDone_.notify_all();
    }
    return true;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    for (;;) {
        if (tryRun(self))
            continue;
        std::unique_lock lock(mutex_);
        workReady_.wait(lock,
                        [this] { return stopping_ || queued_ > 0; });
        if (stopping_ && queued_ == 0)
            return;
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
