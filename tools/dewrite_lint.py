#!/usr/bin/env python3
"""dewrite-lint: repo-specific invariant lint for the DeWrite simulator.

Token-level rules that clang-tidy cannot express because they encode
*project* policy, not C++ policy (DESIGN.md §5e).  The file set is
driven off the build tree's ``compile_commands.json`` (headers are
added by glob since they are not TUs).

Rules
  no-std-hash-container   std::unordered_{map,set,...} is banned in
                          src/: iteration order and allocation are
                          nondeterministic across libstdc++ versions.
                          Use FlatMap / PagedArray / DenseAddrSet.
                          tests/ and bench/ are allowlisted cold paths
                          (reference oracles and comparison baselines).
  no-nondeterminism       rand()/srand()/time()/std::random_device/
                          system_clock/pointer-keyed std::hash are
                          banned in src/ and bench/: every simulated
                          result must be a function of the seed.
                          (steady_clock is fine: host-side profiling
                          only.)
  unsorted-iteration      .forEach( on FlatMap/PagedArray visits
                          bucket order.  Any use needs forEachSorted
                          or an allow() annotation arguing the order
                          never reaches user-visible output.
  hot-path-alloc          inside a function marked ``// dewrite-lint:
                          hot``, allocation-shaped calls (new,
                          make_unique, push_back, resize, ...) are
                          banned.
  no-raw-assert           assert( is banned in src/: it vanishes under
                          NDEBUG and aborts without context.  Use
                          DEWRITE_CHECK (always on, prints the
                          expression and location) or DEWRITE_DCHECK
                          (debug-only) from common/check.hh.
                          static_assert is unaffected.
  env-getenv-funnel       std::getenv may appear only in
                          src/common/env.cc so every environment
                          variable goes through one audited funnel.
  env-fail-fast           new DEWRITE_* variables must be parsed with
                          envFlag()/envUint() (which reject malformed
                          values fatally); raw envRaw() access is
                          reserved for src/common/env.
  env-knob-registry       every DEWRITE_* name passed to an env access
                          call (envFlag/envUint/envRaw/getenv/setenv/
                          unsetenv) must appear in KNOWN_KNOBS below.
                          The catalogue is the single authoritative
                          list of environment knobs; adding a variable
                          without registering it here (and documenting
                          it in README.md) is the defect this rule
                          catches — typos like DEWRITE_SHARD silently
                          reading the default instead of failing.

Suppression
  // dewrite-lint: allow(rule-name)       this line and the next
  // dewrite-lint: allow-file(rule-name)  whole file
  // dewrite-lint: hot                    marks the next function hot

Exit codes: 0 clean, 1 violations, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ANNOTATION_RE = re.compile(
    r"//\s*dewrite-lint:\s*(?P<kind>allow-file|allow|hot)"
    r"(?:\s*\(\s*(?P<rules>[a-z0-9, -]*?)\s*\))?")


class Rule:
    def __init__(self, name: str, pattern: str, dirs: tuple[str, ...],
                 message: str, exempt: tuple[str, ...] = (),
                 hot_only: bool = False,
                 needs_annotation: bool = False):
        self.name = name
        self.pattern = re.compile(pattern)
        self.dirs = dirs          # top-level repo dirs in scope
        self.exempt = exempt      # repo-relative files out of scope
        self.hot_only = hot_only  # only applies inside hot regions
        self.needs_annotation = needs_annotation
        self.message = message


RULES = [
    Rule("no-std-hash-container",
         r"std::unordered_(?:multi)?(?:map|set)\b",
         dirs=("src",),
         message="std::unordered_* is nondeterministic and allocates "
                 "per node; use FlatMap / PagedArray / DenseAddrSet "
                 "(tests/ and bench/ oracles are allowlisted)"),
    Rule("no-nondeterminism",
         r"(?:\b(?:s?rand|time)\s*\(|std::random_device\b"
         r"|\bsystem_clock\b|std::hash<[^<>]*\*\s*>)",
         dirs=("src", "bench"),
         message="nondeterminism source; results must be a pure "
                 "function of the seed (use Rng; steady_clock for "
                 "host profiling)"),
    Rule("unsorted-iteration",
         r"\.forEach\(",
         dirs=("src", "bench"),
         needs_annotation=True,
         message=".forEach( visits bucket order; use forEachSorted "
                 "for anything user-visible, or annotate "
                 "'// dewrite-lint: allow(unsorted-iteration)' with "
                 "the reason order cannot escape"),
    Rule("hot-path-alloc",
         r"(?:\bnew\b|\bmake_unique\b|\bmake_shared\b"
         r"|\.push_back\s*\(|\.emplace_back\s*\(|\.resize\s*\("
         r"|\.reserve\s*\(|std::vector\s*<|std::string\b)",
         dirs=("src",),
         hot_only=True,
         message="allocation-shaped construct inside a "
                 "'// dewrite-lint: hot' function"),
    Rule("no-raw-assert",
         r"(?<![\w.])assert\s*\(",
         dirs=("src",),
         message="raw assert( vanishes under NDEBUG and aborts "
                 "without context; use DEWRITE_CHECK / DEWRITE_DCHECK "
                 "(src/common/check.hh). static_assert is fine"),
    Rule("env-getenv-funnel",
         r"\bgetenv\s*\(",
         dirs=("src", "tests", "bench", "examples"),
         exempt=("src/common/env.cc",),
         message="std::getenv is funneled through src/common/env.cc; "
                 "use envFlag()/envUint()/envRaw()"),
    Rule("env-fail-fast",
         r"\benvRaw\s*\(",
         dirs=("src", "bench", "examples"),
         exempt=("src/common/env.cc", "src/common/env.hh"),
         message="parse DEWRITE_* variables with envFlag()/envUint() "
                 "so malformed values fail fast; raw access is "
                 "reserved for the env layer"),
]

# The authoritative environment-knob catalogue (env-knob-registry).
# Every knob is parsed in src/common/ or documented in README.md; add
# new names here in the same change that introduces them.
KNOWN_KNOBS = frozenset({
    "DEWRITE_AUDIT",         # run-end + epoch metadata audits
    "DEWRITE_AUDIT_EPOCH",   # audit cadence in events
    "DEWRITE_BATCH",         # write-batch capacity (1..kMaxWriteBatch)
    "DEWRITE_EVENTS",        # events per experiment cell
    "DEWRITE_STAGE_PROFILE", # per-stage host-cycle attribution
    "DEWRITE_THREADS",       # runner / service worker threads
})

# src/common/env.cc mirrors the catalogue as knownKnobs() so
# rejectUnknownKnobs() can refuse any other DEWRITE_* name; the two
# lists must stay in lockstep (checked whenever env.cc is linted).
KNOB_MIRROR_FILE = "src/common/env.cc"
# A name needs at least one character past the prefix: the bare
# "DEWRITE_" literal is the prefix rejectUnknownKnobs() scans for.
KNOB_LITERAL_RE = re.compile(r'"(DEWRITE_[A-Z0-9_]+)"')

# Calls whose first argument names an environment variable. The knob
# literal is inspected on the raw line (strip_code erases string
# contents), but only when the call itself survives comment stripping.
ENV_CALL_RE = re.compile(
    r"\b(?P<call>envFlag|envUint|envRaw|getenv|setenv|unsetenv"
    r")\s*\(\s*"
    r"\"(?P<knob>DEWRITE_[A-Z0-9_]*)\"")
ENV_KNOB_RULE = "env-knob-registry"
ENV_KNOB_DIRS = ("src", "tests", "bench", "examples")
# The env unit test exercises the parser with a fixture variable that
# is deliberately not a real knob.
ENV_KNOB_EXEMPT = ("tests/common/env_test.cc",)

RULE_NAMES = {rule.name for rule in RULES} | {ENV_KNOB_RULE}


def strip_code(lines: list[str]) -> list[str]:
    """Return per-line 'code view': comments and string/char literal
    contents removed (annotation parsing uses the raw lines)."""
    out = []
    in_block = False
    for line in lines:
        code = []
        i, n = 0, len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                code.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        code.append(quote)
                        i += 1
                        break
                    i += 1
                continue
            code.append(ch)
            i += 1
        out.append("".join(code))
    return out


def parse_annotations(lines: list[str]):
    """-> (allow: {line_no: set}, allow_file: set, hot_lines: [line_no])

    line_no is 1-based.  Unknown rule names in annotations are
    themselves an error, reported by the caller via the returned
    ``bad`` list of (line_no, name).
    """
    allow: dict[int, set[str]] = {}
    allow_file: set[str] = set()
    hot_starts: list[int] = []
    bad: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines, 1):
        match = ANNOTATION_RE.search(line)
        if not match:
            continue
        kind = match.group("kind")
        names = [name.strip()
                 for name in (match.group("rules") or "").split(",")
                 if name.strip()]
        for name in names:
            if name not in RULE_NAMES:
                bad.append((lineno, name))
        if kind == "hot":
            hot_starts.append(lineno)
        elif kind == "allow-file":
            allow_file.update(names)
        else:
            allow.setdefault(lineno, set()).update(names)
            allow.setdefault(lineno + 1, set()).update(names)
    return allow, allow_file, hot_starts, bad


def hot_regions(code_lines: list[str],
                hot_starts: list[int]) -> set[int]:
    """1-based line numbers inside '// dewrite-lint: hot' functions.

    A hot region runs from the first '{' at or after the annotation to
    its matching '}' (brace counting on the comment-stripped view)."""
    hot: set[int] = set()
    for start in hot_starts:
        depth = 0
        opened = False
        for lineno in range(start, len(code_lines) + 1):
            for ch in code_lines[lineno - 1]:
                if ch == "{":
                    depth += 1
                    opened = True
                elif ch == "}":
                    depth -= 1
            if opened:
                hot.add(lineno)
                if depth <= 0:
                    break
        # An annotation with no following brace (e.g. on a
        # declaration) silently marks nothing; that is caught by the
        # self-test, not worth a runtime diagnostic.
    return hot


def lint_text(rel: str, text: str) -> list[tuple[str, int, str, str]]:
    """Lint one file's contents -> (file, line, rule, message) rows."""
    lines = text.splitlines()
    code = strip_code(lines)
    allow, allow_file, hot_starts, bad = parse_annotations(lines)
    violations = [(rel, lineno, "unknown-rule",
                   f"annotation names unknown rule '{name}'")
                  for lineno, name in bad]
    hot = hot_regions(code, hot_starts)
    top = rel.split("/", 1)[0]
    for rule in RULES:
        if top not in rule.dirs or rel in rule.exempt:
            continue
        if rule.name in allow_file:
            continue
        for lineno, code_line in enumerate(code, 1):
            if rule.hot_only and lineno not in hot:
                continue
            if not rule.pattern.search(code_line):
                continue
            if rule.name in allow.get(lineno, ()):
                continue
            violations.append((rel, lineno, rule.name, rule.message))

    if top in ENV_KNOB_DIRS and rel not in ENV_KNOB_EXEMPT \
            and ENV_KNOB_RULE not in allow_file:
        for lineno, line in enumerate(lines, 1):
            for match in ENV_CALL_RE.finditer(line):
                # Skip calls that only exist inside comments.
                if match.group("call") not in code[lineno - 1]:
                    continue
                if match.group("knob") in KNOWN_KNOBS:
                    continue
                if ENV_KNOB_RULE in allow.get(lineno, ()):
                    continue
                violations.append(
                    (rel, lineno, ENV_KNOB_RULE,
                     f"'{match.group('knob')}' is not in the "
                     "KNOWN_KNOBS catalogue (tools/dewrite_lint.py); "
                     "register new environment knobs there and "
                     "document them in README.md"))

    # Catalogue lockstep: every quoted DEWRITE_* literal in env.cc is a
    # knownKnobs() entry (its env calls take the name as a parameter),
    # so set equality with KNOWN_KNOBS proves the C++ mirror is in sync.
    if rel == KNOB_MIRROR_FILE and "knownKnobs" in text:
        found: dict[str, int] = {}
        for lineno, line in enumerate(lines, 1):
            for match in KNOB_LITERAL_RE.finditer(line):
                found.setdefault(match.group(1), lineno)
        for knob in sorted(set(found) - KNOWN_KNOBS):
            violations.append(
                (rel, found[knob], ENV_KNOB_RULE,
                 f"knownKnobs() lists '{knob}', which is not in the "
                 "KNOWN_KNOBS catalogue (tools/dewrite_lint.py); the "
                 "two lists must stay in lockstep"))
        for knob in sorted(KNOWN_KNOBS - set(found)):
            violations.append(
                (rel, 1, ENV_KNOB_RULE,
                 f"'{knob}' is in the KNOWN_KNOBS catalogue but "
                 "missing from knownKnobs() in src/common/env.cc; the "
                 "two lists must stay in lockstep"))

    violations.sort(key=lambda row: (row[0], row[1], row[2]))
    return violations


def collect_files(build_dir: str,
                  only: list[str] | None) -> list[str]:
    """Repo-relative .cc/.hh files: compile-DB TUs plus header glob."""
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(db_path):
        raise SystemExit(
            f"error: {db_path} not found; configure with "
            "'cmake -B build -S .' first")
    with open(db_path, encoding="utf-8") as handle:
        db = json.load(handle)

    files: set[str] = set()
    for entry in db:
        path = entry["file"]
        absolute = os.path.normpath(
            path if os.path.isabs(path)
            else os.path.join(entry.get("directory", "."), path))
        rel = os.path.relpath(absolute, REPO_ROOT).replace(os.sep, "/")
        if not rel.startswith(".."):
            files.add(rel)
    for pattern in ("src/**/*.hh", "tests/**/*.hh", "bench/**/*.hh",
                    "examples/**/*.hh"):
        for absolute in glob.glob(os.path.join(REPO_ROOT, pattern),
                                  recursive=True):
            files.add(os.path.relpath(absolute, REPO_ROOT)
                      .replace(os.sep, "/"))

    scoped = {rel for rel in files
              if rel.split("/", 1)[0] in ("src", "tests", "bench",
                                          "examples")}
    if only:
        scoped = {rel for rel in scoped
                  if any(rel == o or
                         rel.startswith(o.rstrip("/") + "/")
                         for o in only)}
    return sorted(scoped)


def self_test() -> int:
    """Seeded-violation check: every rule must fire on a synthetic
    file and stay quiet when suppressed."""
    seeded = "\n".join([
        "#include <unordered_map>",
        "std::unordered_map<int, int> m;",          # container   (2)
        "int r = rand();",                          # nondet      (3)
        "auto t = time(nullptr);",                  # nondet      (4)
        "std::hash<Foo *> h;",                      # nondet      (5)
        "table.forEach([](auto k, auto v) {});",    # unsorted    (6)
        "// dewrite-lint: hot",
        "int hotFn() {",
        "    v.push_back(1);",                      # hot alloc   (9)
        "    return new int[2][0];",                # hot alloc   (10)
        "}",
        "void coldFn() { v.push_back(2); }",        # NOT hot: ok
        "const char *e = std::getenv(\"DEWRITE_X\");",  # funnel (13)
        "const char *f = envRaw(\"DEWRITE_Y\");",   # fail-fast  (14)
        "// std::unordered_set<int> in a comment is fine",
        "const char *s = \"rand( in a string is fine\";",
        "std::uint64_t n = envUint(\"DEWRITE_THRAEDS\", 1, 1, 8);",
        "std::uint64_t k = envUint(\"DEWRITE_THREADS\", 1, 1, 64);",
        "assert(x > 0);",                           # raw assert (19)
        "static_assert(sizeof(int) == 4, \"x\");",  # NOT raw: ok
        "DEWRITE_CHECK(x > 0, \"x\");",             # NOT raw: ok
    ])
    rows = lint_text("src/seeded.cc", seeded)
    fired = {(line, rule) for _f, line, rule, _m in rows}
    expect = {
        (2, "no-std-hash-container"),
        (3, "no-nondeterminism"),
        (4, "no-nondeterminism"),
        (5, "no-nondeterminism"),
        (6, "unsorted-iteration"),
        (9, "hot-path-alloc"),
        (10, "hot-path-alloc"),
        (13, "env-getenv-funnel"),
        (13, "env-knob-registry"),   # DEWRITE_X is not a real knob
        (14, "env-fail-fast"),
        (14, "env-knob-registry"),   # neither is DEWRITE_Y
        (17, "env-knob-registry"),   # typo'd DEWRITE_THRAEDS caught
        # line 18: DEWRITE_THREADS is registered -> silent
        (19, "no-raw-assert"),
        # lines 20-21: static_assert / DEWRITE_CHECK -> silent
    }
    assert fired == expect, f"seeded mismatch: {sorted(fired)}"

    # Same-line and previous-line allow() suppress; allow-file
    # suppresses everywhere; unknown rule names are flagged.
    suppressed = "\n".join([
        "// dewrite-lint: allow-file(no-nondeterminism)",
        "int r = rand();",
        "// dewrite-lint: allow(unsorted-iteration) stats dump only",
        "table.forEach([](auto k, auto v) {});",
        "m.forEach(f); // dewrite-lint: allow(unsorted-iteration)",
        "// dewrite-lint: allow(no-such-rule)",
    ])
    rows = lint_text("src/suppressed.cc", suppressed)
    assert [(r[1], r[2]) for r in rows] == [(6, "unknown-rule")], rows

    # Scope: containers are legal in tests/ and bench/; getenv is not
    # legal in tests/; everything is exempt in the env funnel itself.
    assert lint_text("tests/oracle.cc",
                     "std::unordered_map<int, int> m;") == []
    assert lint_text("bench/oracle.cc",
                     "std::unordered_set<int> s;") == []
    assert lint_text("tests/sneaky.cc", "getenv(\"PATH\");") != []
    assert lint_text("src/common/env.cc", "std::getenv(n);") == []

    # forEachSorted never trips the unsorted-iteration rule.
    assert lint_text("src/x.cc", "m.forEachSorted(f);") == []

    # no-raw-assert: tests/ and bench/ may assert freely, allow()
    # names a deliberate exception, and member .assert( (a DSL-ish
    # method) is not the C macro.
    assert lint_text("tests/t.cc", "assert(ok);") == []
    assert lint_text("bench/b.cc", "assert(ok);") == []
    assert lint_text(
        "src/x.cc",
        "// dewrite-lint: allow(no-raw-assert) ffi contract\n"
        "assert(handle != nullptr);") == []
    assert lint_text("src/x.cc", "checker.assert(ok);") == []

    # env-knob-registry: registered knobs pass in every scoped dir,
    # setenv of an unknown knob fires in tests/, allow() suppresses,
    # a knob mentioned only in a comment is fine, and the env unit
    # test's fixture variable is exempt.
    assert lint_text("tests/t.cc",
                     "setenv(\"DEWRITE_AUDIT\", \"1\", 1);") == []
    rows = lint_text("tests/t.cc",
                     "setenv(\"DEWRITE_BOGUS\", \"1\", 1);")
    assert [(r[1], r[2]) for r in rows] == [(1, "env-knob-registry")], \
        rows
    assert lint_text(
        "tests/t.cc",
        "// dewrite-lint: allow(env-knob-registry) fixture\n"
        "setenv(\"DEWRITE_BOGUS\", \"1\", 1);") == []
    assert lint_text("tests/t.cc",
                     "// envUint(\"DEWRITE_BOGUS\") in a comment") == []
    assert lint_text("tests/common/env_test.cc",
                     "setenv(\"DEWRITE_ENV_TEST_VAR\", \"1\", 1);") == []

    # A registered knob passes in src/; a typo'd one is caught like any
    # other unknown knob.
    assert lint_text(
        "src/t.cc",
        "auto p = envUint(\"DEWRITE_AUDIT_EPOCH\", 16, 1, 8);") == []
    rows = lint_text(
        "src/t.cc",
        "auto p = envUint(\"DEWRITE_AUDIT_EPOH\", 16, 1, 8);")
    assert [(r[1], r[2]) for r in rows] == [(1, "env-knob-registry")], \
        rows

    # knownKnobs() lockstep: the full catalogue passes, an extra or a
    # missing entry in env.cc is flagged against the mirror rule.
    catalogue = "const char *knownKnobs[] = {\n" + "\n".join(
        f"    \"{knob}\"," for knob in sorted(KNOWN_KNOBS)) + "\n};"
    assert lint_text("src/common/env.cc", catalogue) == []
    rows = lint_text("src/common/env.cc",
                     catalogue.replace("};", "    \"DEWRITE_TYPO\",\n};"))
    assert [(r[2], "DEWRITE_TYPO" in r[3]) for r in rows] == \
        [("env-knob-registry", True)], rows
    rows = lint_text("src/common/env.cc",
                     catalogue.replace("    \"DEWRITE_AUDIT\",\n",
                                       ""))
    assert [(r[2], "missing from knownKnobs()" in r[3])
            for r in rows] == [("env-knob-registry", True)], rows

    print("dewrite_lint self-test: OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 1)[1])
    parser.add_argument("paths", nargs="*",
                        help="restrict to these repo-relative files or "
                             "directories (default: all)")
    parser.add_argument("--build-dir",
                        default=os.path.join(REPO_ROOT, "build"),
                        help="build tree holding compile_commands.json "
                             "(default: %(default)s)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-violation self-test and "
                             "exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            scope = ", ".join(rule.dirs)
            print(f"{rule.name}  [{scope}]\n    {rule.message}")
        print(f"{ENV_KNOB_RULE}  [{', '.join(ENV_KNOB_DIRS)}]\n"
              f"    DEWRITE_* names in env calls must be registered in "
              f"KNOWN_KNOBS ({len(KNOWN_KNOBS)} registered)")
        return 0
    if args.self_test:
        return self_test()

    try:
        files = collect_files(args.build_dir, args.paths or None)
    except SystemExit as err:
        print(err, file=sys.stderr)
        return 2
    if not files:
        print("error: no files selected", file=sys.stderr)
        return 2

    violations = []
    for rel in files:
        with open(os.path.join(REPO_ROOT, rel),
                  encoding="utf-8") as handle:
            violations.extend(lint_text(rel, handle.read()))

    for rel, lineno, rule, message in violations:
        print(f"{rel}:{lineno}: [{rule}] {message}", file=sys.stderr)
    if violations:
        print(f"\ndewrite-lint: {len(violations)} violation(s) in "
              f"{len({v[0] for v in violations})} file(s)",
              file=sys.stderr)
        return 1
    print(f"dewrite-lint clean: {len(files)} files, "
          f"{len(RULES) + 1} rules")
    return 0


if __name__ == "__main__":
    sys.exit(main())
