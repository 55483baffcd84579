#!/usr/bin/env python3
"""Tracks BENCH_*.json runs over time and gates fingerprint drift.

Every invocation appends one JSONL record per report to the history
file (default BENCH_history.jsonl): the report's provenance block
(git sha, dirty flag, host_cpus, DEWRITE_* knobs) and its parity
fingerprints — the cross-commit trajectory that BENCH_*.json files
alone never provided.

With --check, the newest reports are compared against the committed
baseline (default tools/bench_baseline.json):

  * any parity-fingerprint change fails — the simulation is
    deterministic, so fingerprints are host-portable and a drift is a
    correctness change, not noise;
  * an events_per_cell mismatch fails — different workloads are not
    comparable at all.

Host throughput is not gated here; dwbench (dwbench/run.py) measures
it with repeated steady-state runs.

--update-baseline rewrites the baseline from the given reports (run
it after an intentional change to the simulated results).

Exit codes: 0 ok, 1 parity failure, 2 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


class TrendError(Exception):
    """A gate or validation failed; str() is the diagnostic."""


def fail(message: str) -> None:
    raise TrendError(message)


def load_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"{path}: unreadable or invalid JSON: {error}")


def extract_metrics(path: str, report: object) -> dict:
    """One report -> the comparable slice the history and gate use."""
    if not isinstance(report, dict):
        fail(f"{path}: top level must be a JSON object")
    for key in ("bench", "schema_version", "events_per_cell",
                "provenance"):
        if key not in report:
            fail(f"{path}: missing {key!r} (schema v2 required; "
                 "re-run the bench)")
    provenance = report["provenance"]
    if not isinstance(provenance, dict):
        fail(f"{path}: 'provenance' must be an object")

    fingerprints: dict[str, int] = {}
    bench = report["bench"]
    if bench == "throughput":
        for entry in report.get("schemes", []):
            fingerprints[entry["scheme"]] = int(entry["result_fingerprint"])
    elif bench == "service":
        for entry in report.get("configs", []):
            key = f"shards{entry['shards']}"
            for shard in entry.get("shards_detail", []):
                fingerprints[f"{key}/shard{shard['shard']}"] = \
                    int(shard["service_fingerprint"])
    elif bench == "detection":
        for entry in report.get("policies", []):
            fingerprints[entry["policy"]] = \
                int(entry["detection_fingerprint"])

    return {
        "bench": bench,
        "events_per_cell": report["events_per_cell"],
        "provenance": provenance,
        "fingerprints": fingerprints,
    }


def append_history(history_path: str, metrics: dict) -> None:
    record = dict(metrics)
    record["recorded_unix"] = int(time.time())
    with open(history_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def check_against_baseline(path: str, metrics: dict,
                           baseline: dict) -> None:
    """Raises TrendError on a gate failure."""
    benches = baseline.get("benches")
    if not isinstance(benches, dict):
        fail(f"baseline has no 'benches' object")
    base = benches.get(metrics["bench"])
    if base is None:
        fail(f"{path}: bench {metrics['bench']!r} has no baseline "
             "entry; record one with --update-baseline")

    if base["events_per_cell"] != metrics["events_per_cell"]:
        fail(f"{path}: events_per_cell {metrics['events_per_cell']} "
             f"differs from baseline {base['events_per_cell']}; runs "
             "are not comparable (use the same DEWRITE_EVENTS/--quick "
             "shape as the baseline)")

    # Fingerprints: deterministic, therefore host-portable, therefore
    # hard-gated. Every baseline key must still exist and match.
    for key, fingerprint in sorted(base.get("fingerprints",
                                            {}).items()):
        current = metrics["fingerprints"].get(key)
        if current is None:
            fail(f"{path}: fingerprint {key!r} present in baseline "
                 "but missing from this run")
        if int(current) != int(fingerprint):
            fail(f"{path}: parity fingerprint changed for {key!r}: "
                 f"baseline {fingerprint} vs current {current} — "
                 "simulated results drifted")


def build_baseline(all_metrics: list[dict]) -> dict:
    benches = {}
    for metrics in all_metrics:
        benches[metrics["bench"]] = {
            "events_per_cell": metrics["events_per_cell"],
            "git_sha": metrics["provenance"].get("git_sha", "unknown"),
            "fingerprints": metrics["fingerprints"],
        }
    return {"benches": benches}


def self_test() -> int:
    """Seeded checks: the gate must pass a faithful re-run and fail any
    fingerprint drift or workload-shape change."""
    import tempfile

    def throughput_report(fingerprint: int = 7) -> dict:
        return {"bench": "throughput", "schema_version": 2,
                "events_per_cell": 6000, "threads": 1,
                "provenance": {"git_sha": "abc", "git_dirty": False,
                               "host_cpus": 4,
                               "knobs": {"DEWRITE_EVENTS": None}},
                "schemes": [{"scheme": "secure-baseline",
                             "events_per_sec": 10000.0,
                             "result_fingerprint": fingerprint}],
                "events_per_sec": 10000.0}

    good = extract_metrics("a.json", throughput_report())
    baseline = build_baseline([good])

    # A faithful re-run passes.
    check_against_baseline("a.json", good, baseline)

    # A fingerprint drift fails.
    try:
        check_against_baseline(
            "a.json",
            extract_metrics("a.json", throughput_report(fingerprint=8)),
            baseline)
    except TrendError as error:
        assert "parity fingerprint changed" in str(error), str(error)
    else:
        raise AssertionError("accepted a fingerprint drift")

    # A different workload shape is not comparable.
    wrong_shape = extract_metrics("a.json", throughput_report())
    wrong_shape["events_per_cell"] = 120000
    try:
        check_against_baseline("a.json", wrong_shape, baseline)
    except TrendError as error:
        assert "events_per_cell" in str(error), str(error)
    else:
        raise AssertionError("compared incomparable workload shapes")

    # Service reports gate per-shard fingerprints.
    service = {"bench": "service", "schema_version": 2,
               "events_per_cell": 6000, "threads": 1,
               "provenance": {"git_sha": "abc", "git_dirty": False,
                              "host_cpus": 4, "knobs": {}},
               "configs": [{"shards": 2, "threads": 2, "events": 6000,
                            "events_per_sec": 20000.0,
                            "shards_detail": [
                                {"shard": 0, "service_fingerprint": 1},
                                {"shard": 1,
                                 "service_fingerprint": 2}]}]}
    service_metrics = extract_metrics("s.json", service)
    assert service_metrics["fingerprints"] == {"shards2/shard0": 1,
                                               "shards2/shard1": 2}
    check_against_baseline("s.json", service_metrics,
                           build_baseline([service_metrics]))

    # Detection reports gate the decision parity fingerprints.
    detection = {"bench": "detection", "schema_version": 2,
                 "events_per_cell": 6000, "threads": 1,
                 "provenance": {"git_sha": "abc", "git_dirty": False,
                                "host_cpus": 4, "knobs": {}},
                 "policies": [{"policy": "confirm-read",
                               "events_per_sec": 30000.0,
                               "detection_fingerprint": 7},
                              {"policy": "weak-strong",
                               "events_per_sec": 40000.0,
                               "detection_fingerprint": 7}]}
    detection_metrics = extract_metrics("d.json", detection)
    assert detection_metrics["fingerprints"] == {"confirm-read": 7,
                                                 "weak-strong": 7}
    check_against_baseline("d.json", detection_metrics,
                           build_baseline([detection_metrics]))

    # History append-and-parse round trip.
    with tempfile.TemporaryDirectory() as tmp:
        history = os.path.join(tmp, "BENCH_history.jsonl")
        append_history(history, good)
        append_history(history, service_metrics)
        with open(history, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == 2 and records[0]["bench"] == "throughput"
        assert all("recorded_unix" in r and "provenance" in r
                   for r in records)

    # End-to-end through main(): a faithful re-run exits 0 and a
    # fingerprint drift exits 1 — the CI contract.
    import contextlib
    import io

    with tempfile.TemporaryDirectory() as tmp:
        baseline_path = os.path.join(tmp, "bench_baseline.json")
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle)
        report_path = os.path.join(tmp, "BENCH_throughput.json")
        history = os.path.join(tmp, "BENCH_history.jsonl")

        def run_check(report: dict) -> tuple[int, str]:
            with open(report_path, "w", encoding="utf-8") as handle:
                json.dump(report, handle)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                code = main(["--check", "--baseline", baseline_path,
                             "--history", history, report_path])
            return code, out.getvalue()

        code, output = run_check(throughput_report())
        assert code == 0 and "match the baseline" in output, \
            (code, output)
        code, output = run_check(throughput_report(fingerprint=9))
        assert code == 1 and "parity fingerprint changed" in output, \
            (code, output)

    print("bench_trend self-test: OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 1)[1])
    parser.add_argument("files", nargs="*",
                        help="BENCH_*.json reports to record/check")
    parser.add_argument("--history", default="BENCH_history.jsonl",
                        help="JSONL trajectory file to append to "
                             "(default: %(default)s)")
    parser.add_argument("--baseline",
                        default=os.path.join(
                            os.path.dirname(os.path.abspath(__file__)),
                            "bench_baseline.json"),
                        help="committed baseline (default: "
                             "%(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="gate the reports against the baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the reports")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-regression self-test")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    try:
        if not args.files:
            parser.error("no report files given")
        all_metrics = [extract_metrics(path, load_json(path))
                       for path in args.files]
        for metrics in all_metrics:
            append_history(args.history, metrics)
        print(f"recorded {len(all_metrics)} report(s) in "
              f"{args.history}")

        if args.update_baseline:
            with open(args.baseline, "w", encoding="utf-8") as handle:
                json.dump(build_baseline(all_metrics), handle,
                          indent=2, sort_keys=True)
                handle.write("\n")
            print(f"baseline updated: {args.baseline}")
            return 0

        if args.check:
            baseline = load_json(args.baseline)
            for path, metrics in zip(args.files, all_metrics):
                check_against_baseline(path, metrics, baseline)
            print("bench trend: fingerprints match the baseline")
    except TrendError as error:
        print(error, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
