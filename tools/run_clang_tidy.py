#!/usr/bin/env python3
"""clang-tidy wall driver.

Runs clang-tidy (configured by the repo-root ``.clang-tidy``) over every
translation unit listed in ``compile_commands.json``. Any finding in a
repo file fails the run: fix it, or NOLINT(check) it with the reason.

When clang-tidy is not installed the driver prints a notice and exits 0
so local workflows on minimal containers keep working; CI passes
``--require`` to turn a missing binary into a hard failure.

Exit codes:
  0  clean (or tool skipped because clang-tidy is absent)
  1  findings, or a TU failed to parse
  2  usage / environment error (bad build dir, missing compile DB)
  3  clang-tidy binary required (--require) but not found
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Directories (repo-relative) whose TUs are subject to the wall.
SOURCE_DIRS = ("src", "tests", "bench", "examples")

#: Candidate binary names, newest first.
CLANG_TIDY_CANDIDATES = ("clang-tidy",) + tuple(
    f"clang-tidy-{v}" for v in range(21, 13, -1))

#: ``file:line:col: warning: message [check-a,check-b]``
DIAG_RE = re.compile(
    r"^(?P<file>/[^:]+|[A-Za-z]:[^:]+|[^:\s][^:]*):"
    r"(?P<line>\d+):(?P<col>\d+):\s+"
    r"(?P<severity>warning|error):\s+"
    r"(?P<message>.*?)\s+"
    r"\[(?P<checks>[A-Za-z0-9.,_-]+)\]$")


def find_clang_tidy(explicit: str | None) -> str | None:
    """Resolve the clang-tidy binary, or None if unavailable."""
    if explicit:
        return explicit if shutil.which(explicit) else None
    env = os.environ.get("CLANG_TIDY")
    if env:
        return env if shutil.which(env) else None
    for name in CLANG_TIDY_CANDIDATES:
        if shutil.which(name):
            return name
    return None


def load_compile_db(build_dir: str) -> list[dict]:
    path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(path):
        raise SystemExit(
            f"error: {path} not found; configure with "
            "'cmake -B build -S .' first "
            "(CMAKE_EXPORT_COMPILE_COMMANDS is on by default)")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def repo_relative(path: str, directory: str) -> str | None:
    """Repo-relative path for ``path``, or None if outside the repo."""
    absolute = os.path.normpath(
        path if os.path.isabs(path) else os.path.join(directory, path))
    try:
        relative = os.path.relpath(absolute, REPO_ROOT)
    except ValueError:  # different drive on Windows
        return None
    if relative.startswith(".."):
        return None
    return relative.replace(os.sep, "/")


def select_entries(db: list[dict],
                   only: list[str] | None) -> list[tuple[str, str]]:
    """(absolute file, repo-relative file) pairs subject to the wall.

    Third-party TUs (e.g. FetchContent'd googletest under the build
    tree) live outside SOURCE_DIRS and are skipped.
    """
    selected = []
    seen = set()
    for entry in db:
        rel = repo_relative(entry["file"], entry.get("directory", "."))
        if rel is None or rel in seen:
            continue
        if not rel.split("/", 1)[0] in SOURCE_DIRS:
            continue
        if only and not any(rel == o or rel.startswith(o.rstrip("/") + "/")
                            for o in only):
            continue
        seen.add(rel)
        selected.append((os.path.join(REPO_ROOT, rel), rel))
    selected.sort(key=lambda pair: pair[1])
    return selected


def parse_diagnostics(output: str) -> list[tuple[str, int, str, str]]:
    """Parse clang-tidy stdout into (file, line, check, message) rows.

    A diagnostic tagged with several checks ([a,b]) yields one row per
    check.  Notes and code snippets are ignored.
    """
    rows = []
    for line in output.splitlines():
        match = DIAG_RE.match(line)
        if not match:
            continue
        rel = repo_relative(match.group("file"), REPO_ROOT)
        if rel is None:
            continue  # system/third-party header
        for check in match.group("checks").split(","):
            rows.append((rel, int(match.group("line")), check,
                         match.group("message")))
    return rows


def run_one(binary: str, build_dir: str, absolute: str,
            extra_args: list[str]) -> tuple[str, int, str]:
    cmd = [binary, "-p", build_dir, "--quiet", *extra_args, absolute]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          check=False)
    return absolute, proc.returncode, proc.stdout + proc.stderr


def self_test() -> int:
    """Exercise the diagnostic parser on canned data."""
    canned = "\n".join([
        f"{REPO_ROOT}/src/dedup/hash_store.cc:41:9: warning: use nullptr"
        " [modernize-use-nullptr]",
        "    int *p = 0;",
        "             ^",
        f"{REPO_ROOT}/src/sim/system.cc:10:5: error: narrowing"
        " [bugprone-foo,performance-bar]",
        f"{REPO_ROOT}/src/sim/system.cc:99:1: warning: again"
        " [bugprone-foo]",
        "/usr/include/c++/12/vector:100:3: warning: outside repo"
        " [bugprone-ignored]",
        "note: this note line is not a finding",
    ])
    rows = parse_diagnostics(canned)
    expect_rows = [
        ("src/dedup/hash_store.cc", 41, "modernize-use-nullptr",
         "use nullptr"),
        ("src/sim/system.cc", 10, "bugprone-foo", "narrowing"),
        ("src/sim/system.cc", 10, "performance-bar", "narrowing"),
        ("src/sim/system.cc", 99, "bugprone-foo", "again"),
    ]
    assert rows == expect_rows, f"parser mismatch: {rows}"

    print("run_clang_tidy self-test: OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 1)[1])
    parser.add_argument("paths", nargs="*",
                        help="restrict to these repo-relative files or "
                             "directories (default: all)")
    parser.add_argument("--build-dir", default=os.path.join(REPO_ROOT,
                                                            "build"),
                        help="build tree holding compile_commands.json "
                             "(default: %(default)s)")
    parser.add_argument("--clang-tidy", default=None,
                        help="clang-tidy binary (default: $CLANG_TIDY "
                             "or the newest clang-tidy[-N] on PATH)")
    parser.add_argument("--require", action="store_true",
                        help="fail (exit 3) if clang-tidy is not "
                             "installed instead of skipping")
    parser.add_argument("--jobs", type=int,
                        default=os.cpu_count() or 1,
                        help="parallel clang-tidy processes "
                             "(default: %(default)s)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in parser self-test and "
                             "exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    binary = find_clang_tidy(args.clang_tidy)
    if binary is None:
        if args.require:
            print("error: clang-tidy not found and --require given",
                  file=sys.stderr)
            return 3
        print("run_clang_tidy: clang-tidy not installed; skipping "
              "(install clang-tidy or pass --clang-tidy; CI uses "
              "--require)")
        return 0

    try:
        db = load_compile_db(args.build_dir)
    except SystemExit as err:
        print(err, file=sys.stderr)
        return 2

    entries = select_entries(db, args.paths or None)
    if not entries:
        print("error: no matching translation units in the compile "
              "database", file=sys.stderr)
        return 2

    print(f"run_clang_tidy: {binary} over {len(entries)} TUs "
          f"({args.jobs} jobs)")
    all_rows: list[tuple[str, int, str, str]] = []
    hard_failures = []
    with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
        futures = [pool.submit(run_one, binary, args.build_dir,
                               absolute, [])
                   for absolute, _rel in entries]
        for future in concurrent.futures.as_completed(futures):
            absolute, returncode, output = future.result()
            rows = parse_diagnostics(output)
            all_rows.extend(rows)
            # A failed run with no parseable diagnostics means the TU
            # itself did not compile under clang.
            if returncode != 0 and not rows:
                hard_failures.append((absolute, output.strip()))

    if hard_failures:
        for absolute, output in sorted(hard_failures):
            print(f"error: clang-tidy failed on {absolute}:\n{output}",
                  file=sys.stderr)
        return 1

    if all_rows:
        for rel, line, check, message in sorted(all_rows):
            print(f"  {rel}:{line}: {message} [{check}]", file=sys.stderr)
        print(f"\n{len(all_rows)} clang-tidy finding(s); fix them or "
              "NOLINT(check) them with a reason.", file=sys.stderr)
        return 1
    print("clang-tidy wall clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
