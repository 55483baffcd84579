#!/usr/bin/env python3
"""DeWrite host-throughput benchmark.

Builds the simulator and the dwbench binary from source (first run in a
checkout), runs one workload, checks its outputs, and prints one JSON
line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

    python3 dwbench/run.py --workload dup-heavy --seed 1 --seconds 50 --trace 0
    python3 dwbench/run.py --self-test

--trace 0 prints the end-to-end metrics; --trace 1 runs an untraced
reference process and a traced process and prints the per-layer
metrics. Workloads, metrics and the steadiness evidence are described
in dwbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# The workloads and the (name, unit) of every metric each mode must
# print are the ones BENCHMARK.json declares.
with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as _manifest:
    _DECLARED = json.load(_manifest)
WORKLOADS = tuple(w["name"] for w in _DECLARED["workloads"])
END_TO_END = [(m["name"], m["unit"]) for m in _DECLARED["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _DECLARED["per_layer"]]

# The default workload seed, and a second seed reserved for re-checking
# a claimed gain on inputs it was not tuned on. Do not tune on it.
DEFAULT_SEED = 1
RECHECK_SEED = 20181020

# One invocation must end within 180 s once built.
CHILD_BUDGET_S = 170


class BenchError(Exception):
    pass


def log(message):
    print("dwbench: " + message, file=sys.stderr, flush=True)


def check_environment():
    """Every DEWRITE_* knob changes what is measured; refuse them all.

    The benchmark sets DEWRITE_STAGE_PROFILE itself, for its traced
    process only.
    """
    knobs = sorted(k for k in os.environ if k.startswith("DEWRITE_"))
    if knobs:
        raise BenchError("refusing to run with %s set in the environment"
                         % ", ".join(knobs))


def build():
    """Configures (once) and builds the binary; returns its path."""
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        run_build_step(command)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build_step(["cmake", "--build", build_dir, "-j", jobs])
    binary = os.path.join(build_dir, "dwbench")
    if not os.path.exists(binary):
        raise BenchError("build produced no %s" % binary)
    return binary


def run_build_step(command):
    # Build output goes to stderr: stdout ends with the result line.
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise BenchError("build step failed: %s" % " ".join(command))


def run_child(binary, deadline, workload, seed, seconds, traced=False,
              tiny=False, fault="none"):
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", repr(float(seconds)), "--fault", fault]
    if traced:
        command.append("--traced")
    if tiny:
        command.append("--tiny")
    env = dict(os.environ)
    if traced:
        # Latched once per process, hence the separate traced process.
        env["DEWRITE_STAGE_PROFILE"] = "1"
    timeout = max(1.0, deadline - time.monotonic())
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=sys.stderr, env=env, timeout=timeout,
                                text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % " ".join(command))
    if result.returncode != 0:
        raise BenchError("%s exited with %d" % (" ".join(command),
                                                result.returncode))
    lines = result.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed nothing" % " ".join(command))
    return json.loads(lines[-1])


def compare_fingerprints(reference, traced):
    """Traced results must equal the untraced reference's, per scheme."""
    attempted = failed = 0
    failures = []
    for scheme, expected in sorted(reference["fingerprints"].items()):
        got = traced["fingerprints"].get(scheme, [])
        for index, value in enumerate(expected):
            attempted += 1
            if index >= len(got) or got[index] != value:
                failed += 1
                failures.append("%s traced fingerprint %d differs"
                                % (scheme, index))
    return attempted, failed, failures


def measure(binary, deadline, workload, seed, seconds, trace, tiny=False,
            fault="none"):
    """One measurement: (result dict, provenance dict)."""
    if not trace:
        run = run_child(binary, deadline, workload, seed, seconds, tiny=tiny,
                        fault=fault)
        attempted, failed = run["attempted"], run["failed"]
        failures = list(run["failures"])
        metrics = dict(run["metrics"])
        metrics["verify_pass_ratio"] = {
            "value": 1.0 - failed / attempted if attempted else 0.0,
            "unit": "ratio"}
        expected = END_TO_END
        provenance = run["provenance"]
    else:
        # The untraced reference: one repetition (--seconds 0).
        reference = run_child(binary, deadline, workload, seed, 0,
                              tiny=tiny, fault=fault)
        traced = run_child(binary, deadline, workload, seed, 0, traced=True,
                           tiny=tiny, fault=fault)
        attempted = reference["attempted"] + traced["attempted"]
        failed = reference["failed"] + traced["failed"]
        failures = reference["failures"] + traced["failures"]
        fp_attempted, fp_failed, fp_failures = compare_fingerprints(
            reference, traced)
        attempted += fp_attempted
        failed += fp_failed
        failures += fp_failures

        metrics = dict(traced["metrics"])
        ref_raw, tr_raw = reference["raw"], traced["raw"]
        untraced_s = ref_raw["run_s.dewrite"] + ref_raw["run_s.baseline"]
        traced_s = tr_raw["run_s.dewrite"] + tr_raw["run_s.baseline"]
        metrics["traced_overhead"] = {
            "value": traced_s / untraced_s - 1.0, "unit": "ratio"}
        metrics["gap.dewrite_vs_baseline"] = {"value": ref_raw["gap"],
                                              "unit": "x"}
        metrics["verify_fail_ratio"] = {
            "value": failed / attempted if attempted else 1.0,
            "unit": "ratio"}
        expected = PER_LAYER
        provenance = reference["provenance"]

    names = {name: unit for name, unit in expected}
    got = {name: metric["unit"] for name, metric in metrics.items()}
    if got != names:
        raise BenchError("metric set mismatch: missing %s, unexpected %s"
                         % (sorted(set(names) - set(got)),
                            sorted(set(got) - set(names))))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name, _ in expected},
    }
    provenance = dict(provenance, seed=seed, workload=workload,
                      trace=int(bool(trace)), failures=failures)
    return result, provenance


def self_test(binary):
    """Tiny runs: every metric with its unit, and the checker fires."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            deadline = time.monotonic() + CHILD_BUDGET_S
            result, _ = measure(binary, deadline, workload, DEFAULT_SEED, 0,
                                trace, tiny=True)
            if not result["correct"]:
                problems.append("%s trace %d: checks failed" % (workload,
                                                                trace))
        for fault, trace in (("line", 0), ("parity", 1)):
            deadline = time.monotonic() + CHILD_BUDGET_S
            result, provenance = measure(binary, deadline, workload,
                                         DEFAULT_SEED, 0, trace, tiny=True,
                                         fault=fault)
            ratio = (result["metrics"]["verify_fail_ratio"]["value"] if trace
                     else 1.0 - result["metrics"]["verify_pass_ratio"]["value"])
            ok = ratio > 0 and not result["correct"]
            print("self-test %-14s seeded %-6s fault, trace %d: fail ratio "
                  "%.3g %s" % (workload, fault, trace, ratio,
                               "caught" if ok else "MISSED"))
            if not ok:
                problems.append("%s: seeded %s fault not reported"
                                % (workload, fault))
    for problem in problems:
        print("self-test FAILED: " + problem)
    if not problems:
        print("self-test passed: %d workloads, %d end-to-end and %d "
              "per-layer metrics" % (len(WORKLOADS), len(END_TO_END),
                                     len(PER_LAYER)))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %d; %d is reserved "
                             "for re-checking claims, do not tune on it)"
                             % (DEFAULT_SEED, RECHECK_SEED))
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="tiny runs of every workload, plus seeded "
                             "faults the checker must report")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        check_environment()
        binary = build()
        if args.self_test:
            return self_test(binary)
        deadline = time.monotonic() + CHILD_BUDGET_S
        result, provenance = measure(binary, deadline, args.workload,
                                     args.seed, args.seconds, args.trace)
    except BenchError as error:
        log(str(error))
        return 1
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
