/**
 * @file
 * Uniform machine-readable bench output.
 *
 * Every bench binary that exports numbers writes one
 * BENCH_<name>.json in the working directory through this helper, so
 * downstream tooling (the CI schema check) can rely on a single shape:
 *
 *   {
 *     "bench": "<name>",
 *     "schema_version": 2,
 *     "events_per_cell": <uint>,
 *     "threads": <uint>,
 *     "provenance": {
 *       "git_sha": "<sha or 'unknown'>",
 *       "git_dirty": <bool>,
 *       "host_cpus": <uint>,
 *       "knobs": { "<DEWRITE_*>": "<value>" | null, ... }
 *     },
 *     ...bench-specific payload written via json()...
 *   }
 *
 * The provenance block (schema v2) records everything needed to
 * reproduce or fairly compare the run: the exact commit (stamped at
 * build time by cmake/GenerateVersion.cmake), whether the tree was
 * dirty, the host's hardware concurrency, and the live value of every
 * registered DEWRITE_* knob (null = unset).
 *
 * close() finishes the document and reports whether every byte made it
 * to disk; benches turn a false return into a non-zero exit code
 * instead of silently shipping a truncated file.
 */

#ifndef DEWRITE_OBS_BENCH_REPORT_HH
#define DEWRITE_OBS_BENCH_REPORT_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "obs/json_writer.hh"

namespace dewrite::obs {

/** Header fields every bench JSON carries. v2 added "provenance". */
inline constexpr int kBenchSchemaVersion = 2;

class BenchReport
{
  public:
    /**
     * Opens BENCH_<name>.json and writes the uniform header.
     * @p events_per_cell and @p threads document the run shape.
     */
    BenchReport(const std::string &name, std::uint64_t events_per_cell,
                unsigned threads);

    /** Closes the file if still open (discarding ok()). */
    ~BenchReport();

    BenchReport(const BenchReport &) = delete;
    BenchReport &operator=(const BenchReport &) = delete;

    /** False when the output file could not be opened. */
    bool opened() const { return file_ != nullptr; }

    /**
     * Writer positioned inside the top-level object. Valid even when
     * the file failed to open (it targets a discarded scratch buffer,
     * and close() returns false).
     */
    JsonWriter &json() { return *writer_; }

    /** Output file name (BENCH_<name>.json). */
    const std::string &path() const { return path_; }

    /**
     * Ends the document, flushes, and closes. Returns true iff the
     * file opened, the JSON nested correctly, and every write (and the
     * close itself) succeeded.
     */
    bool close();

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    std::string scratch_; //!< Sink when the file failed to open.
    std::unique_ptr<JsonWriter> writer_;
};

} // namespace dewrite::obs

#endif // DEWRITE_OBS_BENCH_REPORT_HH
