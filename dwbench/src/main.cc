/**
 * @file
 * dwbench: measures one workload of the DeWrite host-throughput
 * benchmark and prints the result as one JSON line on stdout.
 *
 *   dwbench --workload dup-heavy|unique-heavy
 *           [--seed N] [--seconds S] [--traced] [--tiny]
 *           [--fault none|line|parity]
 *
 * dwbench/run.py builds this binary, runs it (twice for a traced
 * measurement, the traced process with DEWRITE_STAGE_PROFILE=1) and
 * turns its output into the benchmark's metrics; see
 * dwbench/README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common/huge_pages.hh"
#include "harness.hh"
#include "obs/version_info.hh"

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "dwbench: %s\nusage: dwbench --workload "
                 "dup-heavy|unique-heavy [--seed N] "
                 "[--seconds S] [--traced] [--tiny] "
                 "[--fault none|line|parity]\n",
                 why);
    std::exit(2);
}

dwbench::Options
parse(int argc, char **argv)
{
    dwbench::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            char *end = nullptr;
            const std::string text = value();
            options.seed = std::strtoull(text.c_str(), &end, 10);
            if (text.empty() || *end != '\0' || text[0] == '-')
                usage("--seed takes an unsigned integer");
        } else if (arg == "--seconds") {
            char *end = nullptr;
            const std::string text = value();
            options.seconds = std::strtod(text.c_str(), &end);
            if (text.empty() || *end != '\0' || options.seconds < 0)
                usage("--seconds takes a non-negative number");
        } else if (arg == "--traced") {
            options.traced = true;
        } else if (arg == "--tiny") {
            options.tiny = true;
        } else if (arg == "--fault") {
            const std::string fault = value();
            if (fault == "none")
                options.fault = dwbench::Options::Fault::None;
            else if (fault == "line")
                options.fault = dwbench::Options::Fault::Line;
            else if (fault == "parity")
                options.fault = dwbench::Options::Fault::Parity;
            else
                usage("--fault takes none, line or parity");
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (options.workload != "dup-heavy" &&
        options.workload != "unique-heavy")
        usage("--workload must be dup-heavy or unique-heavy");
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const dwbench::Options options = parse(argc, argv);
    dwbench::Report report;
    try {
        dwbench::runSystemWorkload(options, report);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "dwbench: %s\n", error.what());
        return 1;
    }
    report.provenance("git_sha", dewrite::obs::kGitSha);
    report.provenance("git_dirty", dewrite::obs::kGitDirty ? "true" : "false");
    report.provenance("nproc",
                      std::to_string(std::thread::hardware_concurrency()));
    report.provenance(
        "huge_advise_failures",
        std::to_string(dewrite::hugeAdviseFailures().load()));
    report.print(options);
    return 0;
}
