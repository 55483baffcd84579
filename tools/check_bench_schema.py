#!/usr/bin/env python3
"""Validates the uniform BENCH_*.json schema every bench binary emits.

Every report written through obs::BenchReport starts with the same
header block, so a reader of any report finds the run's provenance
first; CI fails fast when a bench drifts from the contract:

    {
      "bench": "<name>",          # string, matches the file name
      "schema_version": 2,        # integer, bumped on breaking change
      "events_per_cell": <uint>,  # 0 when not event-driven
      "threads": <uint>,          # worker count used for the run
      "provenance": {             # v2: run reproducibility block
        "git_sha": "<sha>",       # build-time commit ("unknown" ok)
        "git_dirty": <bool>,      # tree had uncommitted changes
        "host_cpus": <uint>,      # hardware concurrency of the host
        "knobs": {"DEWRITE_*": "<value>" | null, ...}
      },
      ...                         # bench-specific payload
    }

With no FILES arguments, checks every BENCH_*.json in the current
directory (override with --glob-dir).

Exit codes: 0 all reports valid, 1 malformed report or none found,
2 usage error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

SCHEMA_VERSION = 2
HEADER = ("bench", "schema_version", "events_per_cell", "threads",
          "provenance")


class SchemaError(Exception):
    """One report violated the contract; str() is the diagnostic."""


def fail(path: str, message: str) -> None:
    raise SchemaError(f"{path}: {message}")


def _is_uint(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_provenance(path: str, report: dict) -> None:
    """The v2 provenance block: commit, dirty flag, host shape, and a
    verbatim capture of every DEWRITE_* knob (null = unset)."""
    prov = report.get("provenance")
    if not isinstance(prov, dict):
        fail(path, "'provenance' must be an object")
    sha = prov.get("git_sha")
    if not isinstance(sha, str) or not sha:
        fail(path, "provenance 'git_sha' must be a non-empty string")
    if not isinstance(prov.get("git_dirty"), bool):
        fail(path, "provenance 'git_dirty' must be a boolean")
    if not _is_uint(prov.get("host_cpus")):
        fail(path, "provenance 'host_cpus' must be a non-negative "
                   "integer")
    knobs = prov.get("knobs")
    if not isinstance(knobs, dict):
        fail(path, "provenance 'knobs' must be an object")
    for name, value in knobs.items():
        if not name.startswith("DEWRITE_"):
            fail(path, f"provenance knob {name!r} is not a DEWRITE_* "
                       "name")
        if value is not None and not isinstance(value, str):
            fail(path, f"provenance knobs[{name!r}] must be a string "
                       "or null")


def check_detection_payload(path: str, report: dict) -> None:
    """BENCH_detection carries the per-policy sweep plus the decision
    parity block pinning weak-strong to confirm-read."""
    policies = report.get("policies")
    if not isinstance(policies, list) or not policies:
        fail(path, "'policies' must be a non-empty array")
    names = set()
    for entry in policies:
        if not isinstance(entry, dict):
            fail(path, "'policies' entries must be objects")
        name = entry.get("policy")
        if not isinstance(name, str) or not name:
            fail(path, "policy entry missing 'policy' name")
        names.add(name)
        if not _is_uint(entry.get("detection_fingerprint")):
            fail(path, f"policy {name!r}: 'detection_fingerprint' must "
                       "be a non-negative integer")
        for key in ("wall_seconds", "events_per_sec", "avg_detect_ns",
                    "confirm_reads", "confirm_reads_avoided",
                    "strong_fp_computes", "write_reduction"):
            if not _is_number(entry.get(key)) or entry.get(key) < 0:
                fail(path, f"policy {name!r}: {key!r} must be a "
                           "non-negative number")
    for required in ("confirm-read", "weak-only", "weak-strong"):
        if required not in names:
            fail(path, f"'policies' is missing the {required!r} sweep")

    parity = report.get("parity")
    if not isinstance(parity, dict):
        fail(path, "'parity' must be an object")
    if parity.get("reference") != "confirm-read":
        fail(path, "parity 'reference' must be 'confirm-read'")
    if not isinstance(parity.get("weak_strong_matches"), bool):
        fail(path, "parity 'weak_strong_matches' must be a boolean")


def check_service_payload(path: str, report: dict) -> None:
    """BENCH_service carries the shard-scaling sweep plus each shard's
    service/reference fingerprint pair."""
    if not _is_uint(report.get("write_batch")) \
            or report.get("write_batch") < 1:
        fail(path, "'write_batch' must be a positive integer")
    if not _is_uint(report.get("host_cpus")) \
            or report.get("host_cpus") < 1:
        fail(path, "'host_cpus' must be a positive integer")

    configs = report.get("configs")
    if not isinstance(configs, list) or not configs:
        fail(path, "'configs' must be a non-empty array")
    for entry in configs:
        if not isinstance(entry, dict):
            fail(path, "'configs' entries must be objects")
        shards = entry.get("shards")
        if not _is_uint(shards) or shards < 1:
            fail(path, "config missing a positive 'shards' count")
        for key in ("threads", "events"):
            if not _is_uint(entry.get(key)):
                fail(path, f"config shards={shards}: {key!r} must be a "
                           "non-negative integer")
        for key in ("wall_seconds", "events_per_sec",
                    "speedup_vs_1shard"):
            if not _is_number(entry.get(key)) or entry.get(key) < 0:
                fail(path, f"config shards={shards}: {key!r} must be a "
                           "non-negative number")
        detail = entry.get("shards_detail")
        if not isinstance(detail, list) or len(detail) != shards:
            fail(path, f"config shards={shards}: 'shards_detail' must "
                       f"be an array of exactly {shards} entries")
        for shard in detail:
            if not isinstance(shard, dict) \
                    or not _is_uint(shard.get("shard")) \
                    or not _is_uint(shard.get("events")) \
                    or not _is_uint(shard.get("service_fingerprint")) \
                    or not _is_uint(shard.get("reference_fingerprint")):
                fail(path, f"config shards={shards}: shards_detail "
                           "entries need uint shard/events/"
                           "service_fingerprint/reference_fingerprint")

    if not isinstance(report.get("parity_ok"), bool):
        fail(path, "'parity_ok' must be a boolean")


def check_report(path: str, report: object) -> None:
    """Validate one parsed report; raises SchemaError on violation."""
    if not isinstance(report, dict):
        fail(path, "top level must be a JSON object")
    for key in HEADER:
        if key not in report:
            fail(path, f"missing required header key {key!r}")

    # The first keys must be the header, in order, so that a human
    # opening any report sees the provenance block first.
    if list(report)[: len(HEADER)] != list(HEADER):
        fail(path, f"header keys must lead the report, in order {HEADER}")

    bench = report["bench"]
    if not isinstance(bench, str) or not bench:
        fail(path, "'bench' must be a non-empty string")
    if os.path.basename(path) != f"BENCH_{bench}.json":
        fail(path, f"file name does not match bench name {bench!r}")
    if report["schema_version"] != SCHEMA_VERSION:
        fail(path, f"schema_version must be {SCHEMA_VERSION}")
    for key in ("events_per_cell", "threads"):
        value = report[key]
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 0:
            fail(path, f"{key!r} must be a non-negative integer")
    if report["threads"] < 1:
        fail(path, "'threads' must be at least 1")
    check_provenance(path, report)

    if bench == "service":
        check_service_payload(path, report)
    elif bench == "detection":
        check_detection_payload(path, report)


def load_file(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(path, f"unreadable or invalid JSON: {error}")


def check_file(path: str) -> None:
    check_report(path, load_file(path))


def _provenance() -> dict:
    return {"git_sha": "abc123", "git_dirty": False, "host_cpus": 4,
            "knobs": {"DEWRITE_EVENTS": "6000", "DEWRITE_LOG": None}}


def self_test() -> int:
    """Seeded-violation check: the validator must accept a conforming
    report and name the defect in each broken variant."""
    good = {"bench": "fig04", "schema_version": SCHEMA_VERSION,
            "events_per_cell": 120000, "threads": 4,
            "provenance": _provenance(), "extra": [1, 2]}
    check_report("BENCH_fig04.json", good)

    def fig04(**overrides: object) -> dict:
        report = {"bench": "fig04", "schema_version": SCHEMA_VERSION,
                  "events_per_cell": 0, "threads": 1,
                  "provenance": _provenance()}
        report.update(overrides)
        return report

    broken = [
        ("missing required header key",
         {"bench": "fig04", "schema_version": SCHEMA_VERSION,
          "threads": 1, "provenance": _provenance()}),
        ("header keys must lead",
         {"extra": 1, **fig04()}),
        ("file name does not match", fig04(bench="other")),
        ("schema_version must be", fig04(schema_version=99)),
        ("non-negative integer", fig04(events_per_cell=True)),
        ("'threads' must be at least 1", fig04(threads=0)),
        ("'provenance' must be an object", fig04(provenance=[1])),
        ("'git_sha' must be a non-empty string",
         fig04(provenance={**_provenance(), "git_sha": ""})),
        ("'git_dirty' must be a boolean",
         fig04(provenance={**_provenance(), "git_dirty": "no"})),
        ("'host_cpus' must be a non-negative integer",
         fig04(provenance={**_provenance(), "host_cpus": -1})),
        ("'knobs' must be an object",
         fig04(provenance={**_provenance(), "knobs": None})),
        ("is not a DEWRITE_* name",
         fig04(provenance={**_provenance(),
                           "knobs": {"PATH": "/bin"}})),
        ("must be a string or null",
         fig04(provenance={**_provenance(),
                           "knobs": {"DEWRITE_EVENTS": 6000}})),
        ("top level must be a JSON object", [1, 2, 3]),
    ]
    for expect, report in broken:
        try:
            check_report("BENCH_fig04.json", report)
        except SchemaError as error:
            assert expect in str(error), (expect, str(error))
        else:
            raise AssertionError(f"accepted broken report: {expect}")

    def service() -> dict:
        return {"bench": "service", "schema_version": SCHEMA_VERSION,
                "events_per_cell": 6000, "threads": 1,
                "provenance": _provenance(),
                "write_batch": 16, "host_cpus": 1, "tenants": 16,
                "configs": [{"shards": 1, "threads": 1, "events": 6000,
                             "wall_seconds": 0.5,
                             "events_per_sec": 12000.0,
                             "speedup_vs_1shard": 1.0,
                             "shards_detail": [
                                 {"shard": 0, "events": 6000,
                                  "service_fingerprint": 7,
                                  "reference_fingerprint": 7}]}],
                "parity_ok": True}

    check_report("BENCH_service.json", service())

    broken_service = [
        ("'host_cpus' must be a positive integer",
         {**service(), "host_cpus": 0}),
        ("'configs' must be a non-empty array",
         {**service(), "configs": []}),
        ("missing a positive 'shards' count",
         {**service(),
          "configs": [{**service()["configs"][0], "shards": 0}]}),
        ("'speedup_vs_1shard' must be a non-negative number",
         {**service(),
          "configs": [{**service()["configs"][0],
                       "speedup_vs_1shard": -1.0}]}),
        ("'shards_detail' must be an array of exactly",
         {**service(),
          "configs": [{**service()["configs"][0],
                       "shards_detail": []}]}),
        ("shards_detail entries need uint",
         {**service(),
          "configs": [{**service()["configs"][0],
                       "shards_detail": [{"shard": 0, "events": 1,
                                          "service_fingerprint": 7}]}]}),
        ("'parity_ok' must be a boolean",
         {**service(), "parity_ok": "yes"}),
    ]
    for expect, report in broken_service:
        try:
            check_report("BENCH_service.json", report)
        except SchemaError as error:
            assert expect in str(error), (expect, str(error))
        else:
            raise AssertionError(f"accepted broken report: {expect}")

    def detection() -> dict:
        def policy(name: str, fingerprint: int) -> dict:
            return {"policy": name, "cells": 20, "events": 120000,
                    "wall_seconds": 0.5, "events_per_sec": 240000.0,
                    "avg_detect_ns": 40.0, "confirm_reads": 100.0,
                    "confirm_reads_avoided": 50.0,
                    "strong_fp_computes": 60.0,
                    "write_reduction": 0.4,
                    "detection_fingerprint": fingerprint}
        return {"bench": "detection", "schema_version": SCHEMA_VERSION,
                "events_per_cell": 6000, "threads": 1,
                "provenance": _provenance(),
                "policies": [policy("confirm-read", 7),
                             policy("weak-only", 9),
                             policy("weak-strong", 7)],
                "parity": {"reference": "confirm-read",
                           "weak_strong_matches": True,
                           "weak_only_fingerprint": 9}}

    check_report("BENCH_detection.json", detection())

    broken_detection = [
        ("'policies' must be a non-empty array",
         {**detection(), "policies": []}),
        ("missing 'policy' name",
         {**detection(),
          "policies": [{**detection()["policies"][0], "policy": ""}]}),
        ("'detection_fingerprint' must be",
         {**detection(),
          "policies": [{**detection()["policies"][0],
                        "detection_fingerprint": -1}]}),
        ("'confirm_reads' must be a non-negative number",
         {**detection(),
          "policies": [{**p, "confirm_reads": -1.0}
                       for p in detection()["policies"]]}),
        ("missing the 'weak-strong' sweep",
         {**detection(),
          "policies": detection()["policies"][:2]}),
        ("'parity' must be an object",
         {**detection(), "parity": None}),
        ("parity 'reference' must be 'confirm-read'",
         {**detection(),
          "parity": {**detection()["parity"],
                     "reference": "weak-only"}}),
        ("parity 'weak_strong_matches' must be a boolean",
         {**detection(),
          "parity": {**detection()["parity"],
                     "weak_strong_matches": "yes"}}),
    ]
    for expect, report in broken_detection:
        try:
            check_report("BENCH_detection.json", report)
        except SchemaError as error:
            assert expect in str(error), (expect, str(error))
        else:
            raise AssertionError(f"accepted broken report: {expect}")

    print("check_bench_schema self-test: OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 1)[1])
    parser.add_argument("files", nargs="*",
                        help="report files to validate (default: "
                             "BENCH_*.json in --glob-dir)")
    parser.add_argument("--glob-dir", default=".",
                        help="directory scanned when no files are "
                             "given (default: %(default)s)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-violation self-test and "
                             "exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    paths = args.files or sorted(
        glob.glob(os.path.join(args.glob_dir, "BENCH_*.json")))
    if not paths:
        print("no BENCH_*.json reports found", file=sys.stderr)
        return 1
    for path in paths:
        try:
            check_file(path)
        except SchemaError as error:
            print(error, file=sys.stderr)
            return 1
    print(f"checked {len(paths)} report(s): schema OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
