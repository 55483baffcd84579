/**
 * @file
 * Parallel experiment runner implementation.
 */

#include "sim/parallel_runner.hh"

#include <algorithm>
#include <thread>

#include "common/env.hh"
#include "common/logging.hh"
#include "sim/thread_pool.hh"

namespace dewrite {

unsigned
runnerThreads()
{
    if (const std::uint64_t parsed = envUint("DEWRITE_THREADS", 0, 1,
                                             4096)) {
        return static_cast<unsigned>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
parallelFor(std::size_t count,
            const std::function<void(std::size_t)> &body,
            unsigned threads)
{
    if (count == 0)
        return;
    const unsigned workers = threads ? threads : runnerThreads();

    // One worker (or one task) degenerates to the plain serial loop —
    // same code path the determinism tests compare against.
    if (workers == 1 || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    ThreadPool pool(workers);
    for (std::size_t i = 0; i < count; ++i)
        pool.submit([&body, i] { body(i); });
    pool.wait();
}

std::vector<ExperimentResult>
runMatrix(const std::vector<AppProfile> &apps,
          const std::vector<SchemeOptions> &schemes,
          const SystemConfig &config, std::uint64_t max_events,
          unsigned threads)
{
    const std::uint64_t events =
        max_events ? max_events : experimentEvents();
    std::vector<ExperimentResult> results(apps.size() * schemes.size());
    parallelFor(
        results.size(),
        [&](std::size_t cell) {
            const std::size_t a = cell / schemes.size();
            const std::size_t s = cell % schemes.size();
            results[cell] = runApp(apps[a], config, schemes[s], events,
                                   appSeed(apps[a]));
        },
        threads);
    return results;
}

} // namespace dewrite
