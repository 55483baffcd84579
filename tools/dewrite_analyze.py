#!/usr/bin/env python3
"""dewrite-analyze: the DeWrite simulator's repo-specific static checker.

One pass over the .cc/.cpp/.hh files under src/, tests/, bench/ and
examples/ checks eleven rules that encode *project* policy, which
clang-tidy has no names for (DESIGN.md §5e). Seven rules are lexical:
they read one line at a time, with comments and string contents
stripped. Four read the whole src/ tree: three walk its call graph
from annotated roots and one its include graph (DESIGN.md §5i).

Lexical rules
  no-std-hash-container  [src] std::unordered_{map,set,...}: iteration
                         order and per-node allocation vary across
                         libstdc++ versions. Use FlatMap / PagedArray /
                         DenseAddrSet (tests/ and bench/ oracles may).
  no-nondeterminism      [src, bench] rand(), srand(), time(),
                         std::random_device, system_clock and
                         pointer-keyed std::hash: every simulated result
                         must be a function of the seed (steady_clock is
                         fine for host profiling).
  unsorted-iteration     [src, bench] .forEach( visits bucket order. Use
                         forEachSorted, or allow() it with the reason the
                         order cannot reach any output.
  no-raw-assert          [src] assert( vanishes under NDEBUG and aborts
                         without context. Use DEWRITE_CHECK or
                         DEWRITE_DCHECK; static_assert is fine.
  env-getenv-funnel      [src, tests, bench, examples] getenv( appears
                         only in src/common/env.cc.
  env-fail-fast          [src, bench, examples] envRaw( is reserved for
                         src/common/env.*; parse DEWRITE_* knobs with
                         envFlag()/envUint(), which reject bad values.
  env-knob-registry      [src, tests, bench, examples] every DEWRITE_*
                         name passed to envFlag/envUint/envRaw/getenv/
                         setenv/unsetenv is an entry of knownKnobs() in
                         src/common/env.cc, the one knob catalogue.

Whole-tree rules [src]
  shard-isolation        From the per-shard roots (root(shard-isolation):
                         the core step and ShardCore's entry points), no
                         call path reaches mutable static-storage state
                         (a namespace-scope variable or a function-local
                         static) that lacks an ownership class.
  hot-path-purity        Functions marked hot and everything they
                         transitively call are free of allocation-shaped
                         constructs (new, make_unique, push_back, resize,
                         a std::vector/std::deque/std::string value or
                         temporary, ...).
  layering               The include graph respects the module DAG
                           common -> {crypto, obs, trace} -> nvm -> cache
                           -> dedup -> controller -> cpu -> sim -> service
                         A module may include itself or a lower layer.
  determinism            From the result-producing roots
                         (root(determinism)), no call path reaches a
                         wall-clock read, rand(), or a .forEach( that is
                         not allowed as unsorted-iteration.

Call graph
  A lexical-structural parser reads function definitions, calls,
  mutable statics and includes straight from the sources. Resolution
  over-approximates: a member call on another object reaches every
  method of that name; an unqualified call prefers the caller's class,
  then its file, then every function of that name. Two edge kinds stand
  in for what the parser cannot see: a call of a function-like macro
  defined in src/ counts as the calls in the macro's definition (every
  #define of that name, so both DEWRITE_DCHECK branches), and any use of
  ==, !=, ^, [ or ( in a body reaches every definition of that operator
  in src/ (== and != reach each other's, as C++20 rewrites one into the
  other). A false edge costs one annotation; a missed edge would be a
  hole in the proof.

Annotations (the prefixes dewrite-lint: and dewrite-analyze: are one)
  // dewrite-lint: hot                     the next function is a hot root
  // dewrite-analyze: root(<rule>)         the next function is a root of
                                           shard-isolation or determinism
  // dewrite-analyze: allow(<rule>, ...)   suppress on this line if
                                           trailing code, else on the next
                                           code line (comment lines between
                                           are skipped, so reasons wrap)
  // dewrite-analyze: allow-file(<rule>)   suppress in the whole file
  // dewrite-owned: shard | global-const | sync(<lock>)
                                           ownership class of a static
  An annotation naming an unknown rule is itself a finding, and so is a
  hot or root annotation inside a function body (it would mark the next
  function instead) and a shard-isolation, hot-path-purity or
  determinism run with no root (the proof would pass vacuously).

Exit codes: 0 clean, 1 findings or a failed check, 2 usage error.
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCAN_DIRS = ("src", "tests", "bench", "examples")
SOURCE_EXTS = ("cc", "cpp", "hh")


class LexicalRule:
    def __init__(self, name: str, pattern: str, dirs: tuple[str, ...],
                 message: str, exempt: tuple[str, ...] = ()) -> None:
        self.name = name
        self.pattern = re.compile(pattern)
        self.dirs = dirs          # top-level repo dirs in scope
        self.exempt = exempt      # repo-relative files out of scope
        self.message = message


LEXICAL_RULES = (
    LexicalRule("no-std-hash-container",
                r"std::unordered_(?:multi)?(?:map|set)\b", ("src",),
                "std::unordered_* is nondeterministic and allocates per "
                "node; use FlatMap / PagedArray / DenseAddrSet"),
    LexicalRule("no-nondeterminism",
                r"(?:\b(?:s?rand|time)\s*\(|std::random_device\b"
                r"|\bsystem_clock\b|std::hash<[^<>]*\*\s*>)",
                ("src", "bench"),
                "nondeterminism source; results must be a pure function "
                "of the seed (use Rng; steady_clock for host profiling)"),
    LexicalRule("unsorted-iteration", r"\.forEach\(", ("src", "bench"),
                ".forEach( visits bucket order; use forEachSorted, or "
                "allow(unsorted-iteration) with the reason order cannot "
                "escape"),
    LexicalRule("no-raw-assert", r"(?<![\w.])assert\s*\(", ("src",),
                "raw assert( vanishes under NDEBUG and aborts without "
                "context; use DEWRITE_CHECK / DEWRITE_DCHECK"),
    LexicalRule("env-getenv-funnel", r"\bgetenv\s*\(", SCAN_DIRS,
                "std::getenv is funneled through src/common/env.cc; use "
                "envFlag()/envUint()/envRaw()",
                exempt=("src/common/env.cc",)),
    LexicalRule("env-fail-fast", r"\benvRaw\s*\(",
                ("src", "bench", "examples"),
                "parse DEWRITE_* variables with envFlag()/envUint() so "
                "malformed values fail fast; raw access is reserved for "
                "the env layer",
                exempt=("src/common/env.cc", "src/common/env.hh")),
)

#: env-knob-registry: calls whose first argument names an environment
#: variable. The knob literal is read from the raw line (the code view
#: erases string contents), but only where the call survives comment
#: stripping.
KNOB_RULE = "env-knob-registry"
KNOB_FILE = "src/common/env.cc"
#: The env unit test drives the parser with a fixture variable that is
#: deliberately not a knob.
KNOB_EXEMPT = ("tests/common/env_test.cc",)
ENV_CALL_RE = re.compile(
    r"\b(?P<call>envFlag|envUint|envRaw|getenv|setenv|unsetenv)\s*\(\s*"
    r"\"(?P<knob>DEWRITE_[A-Z0-9_]*)\"")
KNOB_LITERAL_RE = re.compile(r'"(DEWRITE_[A-Z0-9_]+)"')

#: The rules a root(<rule>) annotation may name; a hot annotation is a
#: root of hot-path-purity.
ROOT_RULES = ("shard-isolation", "determinism")
RULE_NAMES = tuple(rule.name for rule in LEXICAL_RULES) + (
    KNOB_RULE, "shard-isolation", "hot-path-purity", "layering",
    "determinism")

#: Module layering. A file's module is its first path component under
#: src/. Lower number = lower layer; a module may include itself or any
#: strictly lower layer.
LAYERS = {
    "common": 0,
    "crypto": 1,
    "obs": 1,
    "trace": 1,
    "nvm": 2,
    "cache": 3,
    "dedup": 4,
    "controller": 5,
    "cpu": 6,
    "sim": 7,
    "service": 8,
}

#: C++ keywords and keyword-like tokens that look like calls.
NOT_A_CALL = frozenset({
    "if", "for", "while", "switch", "return", "catch", "sizeof",
    "alignof", "alignas", "decltype", "noexcept", "throw", "new",
    "delete", "case", "default", "do", "else", "goto", "typeid",
    "static_assert", "assert", "defined", "va_start", "va_end",
    "va_copy", "operator",
})

#: Allocation-shaped constructs (hot-path-purity).
ALLOC_RE = re.compile(
    r"(?:\bnew\b|\bmake_unique\b|\bmake_shared\b|\bmalloc\s*\("
    r"|\bcalloc\s*\(|\brealloc\s*\(|\.push_back\s*\("
    r"|\.emplace_back\s*\(|\.resize\s*\(|\.reserve\s*\("
    # A container or string *value*, declared or temporary, allocates;
    # a reference or pointer binding to one does not.
    r"|std::(?:vector|deque)\s*<[^;]*>\s*(?:[A-Za-z_]\w*|[({])"
    r"|std::string\b\s*(?:[A-Za-z_]\w*|[({]))")

#: Nondeterminism sources (determinism): wall-clock reads, rand, and
#: address-ordered (bucket-order) iteration.
WALLCLOCK_RE = re.compile(
    r"(?:\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b"
    r"|\btime\s*\(|\bclock_gettime\s*\(|\bgettimeofday\s*\("
    r"|\b__?rdtscp?\s*\()")
RAND_RE = re.compile(r"(?:\bs?rand\s*\(|\brandom_device\b)")
FOREACH_RE = re.compile(r"\.forEach\s*\(")

#: Operator uses and the overloaded operators each may call (see "Call
#: graph" above).
OPERATOR_USES = (
    (re.compile(r"[=!]="), ("operator==", "operator!=")),
    (re.compile(r"\^(?!=)"), ("operator^",)),
    (re.compile(r"\["), ("operator[]",)),
    (re.compile(r"\("), ("operator()",)),
)

ANNOT_RE = re.compile(
    r"//\s*dewrite-(?:lint|analyze):\s*"
    r"(?P<kind>allow-file|allow|root|hot)\b"
    r"(?:\s*\(\s*(?P<rules>[a-z0-9, -]*?)\s*\))?")
OWNED_RE = re.compile(
    r"//\s*dewrite-owned:\s*(?P<cls>shard|global-const"
    r"|sync\(\s*[A-Za-z_][\w.:]*\s*\))")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"(?P<path>[^"]+)"')
DEFINE_RE = re.compile(
    r"^\s*#\s*define\s+(?P<name>[A-Za-z_]\w*)\([^)]*\)(?P<body>.*)$")


# --------------------------------------------------------------------
# Text utilities and annotations
# --------------------------------------------------------------------

def strip_code(lines: list[str]) -> list[str]:
    """Per-line 'code view': comments and string/char literal contents
    removed (annotations are parsed from the raw lines instead)."""
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


class Annotations:
    """The per-file annotation sets the rules consult."""

    def __init__(self) -> None:
        self.allow: dict[int, set[str]] = {}      # line -> rules
        self.allow_file: set[str] = set()
        self.roots: dict[int, set[str]] = {}      # line -> rules
        self.owned: dict[int, str] = {}           # line -> class
        self.bad: list[tuple[int, str]] = []      # unknown rule names

    def allowed(self, rule: str, lineno: int) -> bool:
        if rule in self.allow_file:
            return True
        return rule in self.allow.get(lineno, ())


def parse_annotations(lines: list[str]) -> Annotations:
    """Scan raw source lines for the annotation grammar (see the module
    docstring)."""
    notes = Annotations()

    def is_comment_only(idx: int) -> bool:
        return not lines[idx - 1].split("//", 1)[0].strip()

    def next_code_line(lineno: int) -> int:
        target = lineno + 1
        while target <= len(lines) and is_comment_only(target):
            target += 1
        return target

    for lineno, line in enumerate(lines, 1):
        own_line = is_comment_only(lineno)
        match = ANNOT_RE.search(line)
        if match:
            kind = match.group("kind")
            names = [name.strip()
                     for name in (match.group("rules") or "").split(",")
                     if name.strip()]
            allowed = ROOT_RULES if kind == "root" else RULE_NAMES
            notes.bad.extend((lineno, name) for name in names
                             if name not in allowed)
            if kind in ("hot", "root"):
                notes.roots.setdefault(lineno, set()).update(
                    names if kind == "root" else ["hot-path-purity"])
            elif kind == "allow-file":
                notes.allow_file.update(names)
            else:
                target = next_code_line(lineno) if own_line else lineno
                notes.allow.setdefault(target, set()).update(names)
        match = OWNED_RE.search(line)
        if match:
            notes.owned[next_code_line(lineno)
                        if own_line else lineno] = match.group("cls")
    return notes


# --------------------------------------------------------------------
# Intermediate representation
# --------------------------------------------------------------------

class Function:
    """One function definition with a body."""

    def __init__(self, qname: str, rel: str, line: int,
                 end_line: int) -> None:
        self.qname = qname          # e.g. "dewrite::ShardCore::flush"
        self.rel = rel
        self.line = line            # line of the body's opening brace
        self.end_line = end_line    # closing brace line
        self.calls: list[str] = []  # callee names as written
        self.cls = ""               # owning class ("" for free fns)
        parts = qname.split("::")
        self.name = parts[-1]
        if len(parts) >= 2:
            self.cls = parts[-2]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<fn {self.qname} {self.rel}:{self.line}>"


class GlobalVar:
    """A mutable static-storage variable (namespace-scope or
    function-local static)."""

    def __init__(self, name: str, rel: str, line: int,
                 owner: str | None) -> None:
        self.name = name
        self.rel = rel
        self.line = line
        self.owner = owner  # qname of enclosing function, or None


class FileIR:
    """One source file: its lines, code view and annotations; for src/
    files also its functions, statics, includes and macros."""

    def __init__(self, rel: str, text: str) -> None:
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.code = strip_code(self.lines)
        self.notes = parse_annotations(self.lines)
        self.functions: list[Function] = []
        self.globals: list[GlobalVar] = []
        self.includes: list[tuple[int, str]] = []  # (line, path)
        self.macros: dict[str, list[str]] = {}     # name -> calls


class Tree:
    """Every scanned file, keyed by repo-relative path."""

    def __init__(self, files: dict[str, FileIR]) -> None:
        self.files = files

    def all_functions(self) -> list[Function]:
        return [fn for ir in self.files.values() for fn in ir.functions]

    def all_globals(self) -> list[GlobalVar]:
        return [gv for ir in self.files.values() for gv in ir.globals]


# --------------------------------------------------------------------
# Front-end (lexical-structural parse of src/)
# --------------------------------------------------------------------

SCOPE_NAMESPACE_RE = re.compile(
    r"(?:^|[;{}\s])namespace"
    r"(?:\s+([A-Za-z_]\w*(?:\s*::\s*[A-Za-z_]\w*)*))?\s*$")
SCOPE_CLASS_RE = re.compile(
    r"\b(?:class|struct|union)\s+(?:alignas\s*\([^)]*\)\s*)?"
    r"([A-Za-z_]\w*)\b(?!.*;)[^()]*$")
SCOPE_ENUM_RE = re.compile(r"\benum\b[^;()]*$")
FUNC_NAME_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*(?:~\s*[A-Za-z_]\w*|operator\s*"
    r"(?:\(\s*\)|\[\s*\]|[<>=!+\-*/%&|^~]+)|[A-Za-z_]\w*))\s*$")
CALL_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)"
    r"\s*(?:<[^<>;(){}]*>)?\s*\(")
STATIC_LOCAL_RE = re.compile(
    r"^\s*(?:static|thread_local)\s+(?:thread_local\s+)?(?!const\b)"
    r"(?!constexpr\b)(?!inline\b)"
    r"(?P<type>[A-Za-z_][\w:<>,\s*&]*?)\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*(?:\{|=|;)")
GLOBAL_VAR_RE = re.compile(
    r"^(?:static\s+|inline\s+|thread_local\s+)*"
    r"(?!using\b|typedef\b|extern\b|template\b|friend\b|return\b"
    r"|class\b|struct\b|enum\b|union\b|namespace\b|const\b"
    r"|constexpr\b|constinit\b|static_assert\b|public\b|private\b"
    r"|protected\b)"
    r"(?P<type>[A-Za-z_][\w:<>,\s*&]*?)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)*"
    r"(?:\{.*\}|=[^;]*)?;\s*$")
#: A '{' that continues a declaration (brace/equals initializer)
#: rather than opening a scope.
INIT_BRACE_RE = re.compile(
    r"(?:=|[A-Za-z_]\w*\s*(?:\[[^\]]*\]\s*)*)\s*$")
SCOPE_KEYWORD_RE = re.compile(
    r"\b(?:struct|class|union|enum|namespace)\b")


def _function_header(pending: str) -> str | None:
    """If ``pending`` (code since the last statement boundary) ends in
    a function-definition header, return the function name as written
    (possibly ``Class::name``); else None."""
    text = " ".join(pending.split())
    if not text or text.endswith("=") or "=]" in text:
        return None
    # Trim a constructor initializer list / trailing specifiers: find
    # the parameter list — the last top-level "(...)" group whose
    # preceding token is a plausible function name and whose trailing
    # text is only specifiers or an initializer list.
    depth = 0
    groups = []  # (start, end) of top-level paren groups
    start = -1
    for i, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                start = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and start >= 0:
                groups.append((start, i))
    if depth != 0 or not groups:
        return None
    for start, end in groups:
        head = text[:start].rstrip()
        tail = text[end + 1:].strip()
        match = FUNC_NAME_RE.search(head)
        if not match:
            continue
        name = re.sub(r"\s+", "", match.group(1))
        last = name.split("::")[-1]
        if last in NOT_A_CALL and not last.startswith("operator"):
            continue
        # The tail must be specifiers, a trailing return, or a ctor
        # initializer list — anything else means this group was not
        # the parameter list (e.g. an initializer expression).
        if re.fullmatch(
                r"(?:\s|const|noexcept(?:\([^)]*\))?|override|final"
                r"|mutable|->\s*[\w:<>,&*\s]+|:\s*.*|\btry\b)*",
                tail):
            return name
    return None


def calls_in(code_line: str) -> list[str]:
    """Callee names one line of code may reach: calls as written (a
    member call on another object, 'x.f(' or 'x->f(', is marked with a
    leading '.' so resolution does not narrow it to the caller's own
    class) plus the overloaded operators its operator uses may call."""
    calls = []
    for call in CALL_RE.finditer(code_line):
        name = re.sub(r"\s+", "", call.group(1))
        if name.split("::")[-1] in NOT_A_CALL:
            continue
        before = code_line[:call.start()].rstrip()
        if before.endswith(".") or before.endswith("->"):
            name = "." + name
        calls.append(name)
    for pattern, operators in OPERATOR_USES:
        if pattern.search(code_line):
            calls.extend("." + op for op in operators)
    return calls


def parse_macros(code: list[str]) -> dict[str, list[str]]:
    """Function-like macros -> the calls in their definitions."""
    macros: dict[str, list[str]] = {}
    lineno = 0
    while lineno < len(code):
        match = DEFINE_RE.match(code[lineno])
        lineno += 1
        if not match:
            continue
        body = match.group("body")
        while body.rstrip().endswith("\\") and lineno < len(code):
            body = body.rstrip()[:-1] + " " + code[lineno]
            lineno += 1
        macros.setdefault(match.group("name"), []).extend(calls_in(body))
    return macros


def parse_file(rel: str, text: str) -> FileIR:
    """One file into the IR; only src/ files get the structural parse."""
    ir = FileIR(rel, text)
    if not rel.startswith("src/"):
        return ir
    code = ir.code
    for lineno, line in enumerate(ir.lines, 1):
        match = INCLUDE_RE.match(line)
        if match:
            ir.includes.append((lineno, match.group("path")))
    ir.macros = parse_macros(code)

    # Scope stack entries: (kind, name) with kind in
    # namespace/class/function/block/enum; functions also carry state.
    stack: list[dict] = []
    pending = ""
    current_fn: Function | None = None
    fn_depth = 0          # brace depth where current_fn's body started
    init_depth: int | None = None  # brace-initializer nesting start
    depth = 0

    def scope_prefix() -> str:
        parts = [entry["name"] for entry in stack
                 if entry["kind"] in ("namespace", "class")
                 and entry["name"]]
        return "::".join(parts)

    for lineno, line in enumerate(code, 1):
        fn_this_line = current_fn
        i, n = 0, len(line)
        while i < n:
            ch = line[i]
            if ch == "{":
                if current_fn is None and init_depth is not None:
                    pending += "{"
                elif current_fn is None:
                    header = pending
                    name = None
                    ns = SCOPE_NAMESPACE_RE.search(header)
                    if ns:
                        stack.append({"kind": "namespace",
                                      "name": re.sub(r"\s+", "",
                                                     ns.group(1) or ""),
                                      "depth": depth})
                    elif SCOPE_ENUM_RE.search(header):
                        stack.append({"kind": "enum", "name": "",
                                      "depth": depth})
                    elif (cls := SCOPE_CLASS_RE.search(header)) \
                            and "(" not in header[cls.end(1):]:
                        stack.append({"kind": "class",
                                      "name": cls.group(1),
                                      "depth": depth})
                    elif (name := _function_header(header)) is not None:
                        prefix = scope_prefix()
                        qname = (prefix + "::" + name) if prefix \
                            else name
                        current_fn = Function(re.sub(r"\s+", "", qname),
                                              rel, lineno, lineno)
                        fn_this_line = current_fn
                        fn_depth = depth
                        stack.append({"kind": "function", "name": "",
                                      "depth": depth})
                    elif INIT_BRACE_RE.search(header.strip()) \
                            and header.strip() \
                            and not SCOPE_KEYWORD_RE.search(header):
                        init_depth = depth
                        pending += "{"
                        depth += 1
                        i += 1
                        continue
                    else:
                        stack.append({"kind": "block", "name": "",
                                      "depth": depth})
                    pending = ""
                depth += 1
            elif ch == "}":
                depth -= 1
                if init_depth is not None and current_fn is None:
                    pending += "}"
                    if depth == init_depth:
                        init_depth = None
                    i += 1
                    continue
                if stack and stack[-1]["depth"] == depth:
                    entry = stack.pop()
                    if entry["kind"] == "function" \
                            and current_fn is not None \
                            and depth == fn_depth:
                        current_fn.end_line = lineno
                        ir.functions.append(current_fn)
                        current_fn = None
                pending = ""
            elif ch == ";" and current_fn is None \
                    and init_depth is None:
                statement = pending.strip()
                # Namespace-scope mutable variable definitions (class
                # bodies and enums are not namespace scope).
                at_ns = not stack or stack[-1]["kind"] == "namespace"
                if at_ns and statement and "(" not in statement:
                    gv = GLOBAL_VAR_RE.match(statement + ";")
                    immutable = {"const", "constexpr",
                                 "constinit"}
                    if gv and not (immutable &
                                   set(gv.group("type").split())):
                        ir.globals.append(
                            GlobalVar(gv.group("name"), rel, lineno,
                                      None))
                pending = ""
            else:
                pending += ch
            i += 1
        if fn_this_line is not None:
            # Record calls and function-local statics on body lines
            # (fn_this_line also covers one-line bodies that opened
            # and closed within this line).
            fn_this_line.calls.extend(calls_in(line))
            sl = STATIC_LOCAL_RE.match(line)
            if sl and not ({"const", "constexpr", "constinit"} &
                           set(sl.group("type").split())):
                ir.globals.append(GlobalVar(sl.group("name"), rel,
                                            lineno,
                                            fn_this_line.qname))
        if current_fn is None:
            pending += " "  # line break separates tokens
    return ir


def load_tree(sources: dict[str, str],
              reuse: Tree | None = None) -> Tree:
    """Parse ``sources`` (rel -> text), reusing the IR of every file
    whose text is unchanged in ``reuse``."""
    files = {}
    for rel in sorted(sources):
        old = reuse.files.get(rel) if reuse else None
        files[rel] = old if old is not None and old.text == sources[rel] \
            else parse_file(rel, sources[rel])
    return Tree(files)


def collect_sources() -> dict[str, str]:
    """rel -> text for every source file under SCAN_DIRS."""
    files: dict[str, str] = {}
    for top in SCAN_DIRS:
        for ext in SOURCE_EXTS:
            pattern = os.path.join(REPO_ROOT, top, "**", "*." + ext)
            for absolute in glob.glob(pattern, recursive=True):
                rel = os.path.relpath(absolute, REPO_ROOT) \
                    .replace(os.sep, "/")
                with open(absolute, encoding="utf-8") as handle:
                    files[rel] = handle.read()
    return files


# --------------------------------------------------------------------
# Call graph
# --------------------------------------------------------------------

class CallGraph:
    def __init__(self, tree: Tree) -> None:
        self.by_name: dict[str, list[Function]] = {}
        self.by_class: dict[tuple[str, str], list[Function]] = {}
        self.by_file: dict[tuple[str, str], list[Function]] = {}
        self.macros: dict[str, list[str]] = {}
        for fn in tree.all_functions():
            self.by_name.setdefault(fn.name, []).append(fn)
            if fn.cls:
                self.by_class.setdefault((fn.cls, fn.name),
                                         []).append(fn)
            self.by_file.setdefault((fn.rel, fn.name), []).append(fn)
        for ir in tree.files.values():
            for name, calls in ir.macros.items():
                self.macros.setdefault(name, []).extend(calls)

    def expand(self, calls: list[str],
               seen: frozenset[str] = frozenset()) -> list[str]:
        """``calls`` with each function-like macro replaced by the calls
        in its definitions, transitively."""
        out = []
        for callee in calls:
            body = self.macros.get(callee)
            if body is None:
                out.append(callee)
            elif callee not in seen:
                out.extend(self.expand(body, seen | {callee}))
        return out

    def resolve(self, caller: Function, callee: str) -> list[Function]:
        """Over-approximate resolution of one call written ``callee``.

        Qualified calls match by component suffix. Unqualified calls
        prefer the caller's class, then the caller's file, then every
        function of that name tree-wide (virtual dispatch and
        cross-file helpers stay covered). Member calls on another
        object (recorded with a leading '.') skip the same-class and
        same-file narrowing: the receiver's type is unknown, so every
        method of that name stays a candidate.
        """
        member_call = callee.startswith(".")
        if member_call:
            callee = callee[1:]
        parts = callee.split("::")
        name = parts[-1]
        candidates = self.by_name.get(name, [])
        if not candidates:
            return []
        if len(parts) > 1:
            suffix = parts[-2:]
            return [fn for fn in candidates
                    if fn.qname.split("::")[-2:] == suffix
                    or fn.qname.split("::")[-len(parts):] == parts]
        if member_call:
            return candidates
        if caller.cls:
            same_class = self.by_class.get((caller.cls, name))
            if same_class:
                return same_class
        same_file = self.by_file.get((caller.rel, name))
        if same_file:
            return same_file
        return candidates

    def reachable(self, roots: list[Function]
                  ) -> dict[Function, tuple[Function, ...]]:
        """BFS closure; value is the witness path from a root."""
        paths: dict[Function, tuple[Function, ...]] = {}
        queue: list[Function] = []
        for root in roots:
            if root not in paths:
                paths[root] = (root,)
                queue.append(root)
        while queue:
            fn = queue.pop(0)
            for callee in self.expand(fn.calls):
                for target in self.resolve(fn, callee):
                    if target not in paths:
                        paths[target] = paths[fn] + (target,)
                        queue.append(target)
        return paths


def witness(path: tuple[Function, ...]) -> str:
    return " -> ".join(fn.qname for fn in path)


# --------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------

Finding = tuple[str, int, str, str]  # (file, line, rule, message)


def known_knobs(tree: Tree) -> frozenset[str] | None:
    """The DEWRITE_* literals in the body of knownKnobs() in KNOB_FILE,
    or None if the tree has no such catalogue."""
    ir = tree.files.get(KNOB_FILE)
    fn = next((fn for fn in ir.functions if fn.name == "knownKnobs"),
              None) if ir else None
    if fn is None:
        return None
    knobs = {knob
             for lineno in range(fn.line, fn.end_line + 1)
             if '"' in ir.code[lineno - 1]
             for knob in KNOB_LITERAL_RE.findall(ir.lines[lineno - 1])}
    return frozenset(knobs) or None


def rule_lexical(ir: FileIR, knobs: frozenset[str]) -> list[Finding]:
    """The seven lexical rules over one file."""
    findings: list[Finding] = []
    top = ir.rel.split("/", 1)[0]
    for rule in LEXICAL_RULES:
        if top not in rule.dirs or ir.rel in rule.exempt:
            continue
        for lineno, code_line in enumerate(ir.code, 1):
            if rule.pattern.search(code_line) \
                    and not ir.notes.allowed(rule.name, lineno):
                findings.append((ir.rel, lineno, rule.name, rule.message))
    if ir.rel in KNOB_EXEMPT:
        return findings
    for lineno, line in enumerate(ir.lines, 1):
        for match in ENV_CALL_RE.finditer(line):
            if match.group("call") not in ir.code[lineno - 1] \
                    or match.group("knob") in knobs \
                    or ir.notes.allowed(KNOB_RULE, lineno):
                continue
            findings.append((
                ir.rel, lineno, KNOB_RULE,
                f"'{match.group('knob')}' is not in knownKnobs() "
                f"({KNOB_FILE}); register new knobs there and document "
                "them in README.md"))
    return findings


def collect_roots(tree: Tree, rule: str) -> list[Function]:
    roots = []
    for ir in tree.files.values():
        for lineno, rules in ir.notes.roots.items():
            if rule not in rules:
                continue
            below = [fn for fn in ir.functions if fn.line >= lineno]
            if below:
                roots.append(min(below, key=lambda fn: fn.line))
    return roots


def rule_shard_isolation(tree: Tree, graph: CallGraph) -> list[Finding]:
    """No drain-task call path reaches unannotated mutable
    static-storage state."""
    findings: list[Finding] = []
    closure = graph.reachable(collect_roots(tree, "shard-isolation"))

    by_name: dict[str, list[GlobalVar]] = {}
    for gv in tree.all_globals():
        notes = tree.files[gv.rel].notes
        if gv.line in notes.owned \
                or notes.allowed("shard-isolation", gv.line):
            continue
        by_name.setdefault(gv.name, []).append(gv)

    for fn, path in closure.items():
        notes = tree.files[fn.rel].notes
        # Function-local statics declared by a reachable function.
        for gvs in by_name.values():
            for gv in gvs:
                if gv.owner == fn.qname:
                    findings.append((
                        gv.rel, gv.line, "shard-isolation",
                        f"mutable static '{gv.name}' in {fn.qname} is "
                        f"reachable from a shard drain task "
                        f"({witness(path)}); annotate '// dewrite-owned:"
                        f" shard|global-const|sync(<lock>)' or remove "
                        f"the shared state"))
        # References to namespace-scope mutable globals.
        body = tree.files[fn.rel].code[fn.line - 1:fn.end_line]
        for lineno_off, code_line in enumerate(body):
            lineno = fn.line + lineno_off
            for token in re.finditer(r"[A-Za-z_]\w*", code_line):
                for gv in by_name.get(token.group(0), ()):
                    if gv.owner is not None:
                        # Function-local statics are reported at the
                        # declaring function above, not per mention.
                        continue
                    if gv.line == lineno and gv.rel == fn.rel:
                        continue  # the declaration itself
                    if notes.allowed("shard-isolation", lineno):
                        continue
                    findings.append((
                        fn.rel, lineno, "shard-isolation",
                        f"{fn.qname} touches mutable global "
                        f"'{gv.name}' ({gv.rel}:{gv.line}) on a shard "
                        f"drain path ({witness(path)})"))
    return findings


def rule_hot_purity(tree: Tree, graph: CallGraph) -> list[Finding]:
    """Hot functions and everything they reach never allocate."""
    findings: list[Finding] = []
    roots = collect_roots(tree, "hot-path-purity")
    for fn, path in graph.reachable(roots).items():
        ir = tree.files[fn.rel]
        for lineno in range(fn.line, fn.end_line + 1):
            if ALLOC_RE.search(ir.code[lineno - 1]) \
                    and not ir.notes.allowed("hot-path-purity", lineno):
                findings.append((
                    fn.rel, lineno, "hot-path-purity",
                    f"allocation-shaped construct in {fn.qname}, "
                    f"reachable from hot kernel ({witness(path)})"))
    return findings


def rule_layering(tree: Tree) -> list[Finding]:
    """The include graph respects the module DAG."""
    findings: list[Finding] = []
    for rel, ir in tree.files.items():
        parts = rel.split("/")
        if parts[0] != "src" or len(parts) < 3:
            continue
        from_mod = parts[1]
        from_layer = LAYERS.get(from_mod)
        if from_layer is None:
            findings.append((rel, 1, "layering",
                             f"module '{from_mod}' is not in the "
                             "layering table (tools/dewrite_analyze.py "
                             "LAYERS); add it with a layer"))
            continue
        for lineno, path in ir.includes:
            to_mod = path.split("/", 1)[0]
            to_layer = LAYERS.get(to_mod)
            if to_layer is None:
                continue  # non-module include (e.g. generated)
            if to_mod == from_mod or to_layer < from_layer:
                continue
            if ir.notes.allowed("layering", lineno):
                continue
            findings.append((
                rel, lineno, "layering",
                f"include of '{path}' breaks the module DAG: "
                f"{from_mod} (layer {from_layer}) may not depend on "
                f"{to_mod} (layer {to_layer}); invert the dependency "
                f"or annotate '// dewrite-analyze: allow(layering) "
                f"<reason>'"))
    return findings


def rule_determinism(tree: Tree, graph: CallGraph) -> list[Finding]:
    """Result-producing code never reaches wall-clock, rand, or
    unannotated address-ordered iteration."""
    findings: list[Finding] = []
    closure = graph.reachable(collect_roots(tree, "determinism"))
    for fn, path in closure.items():
        ir = tree.files[fn.rel]
        for lineno in range(fn.line, fn.end_line + 1):
            code_line = ir.code[lineno - 1]
            kind = None
            if WALLCLOCK_RE.search(code_line):
                kind = "wall-clock read"
            elif RAND_RE.search(code_line):
                kind = "rand()-family call"
            elif FOREACH_RE.search(code_line) and not ir.notes.allowed(
                    "unsorted-iteration", lineno):
                kind = "address-ordered .forEach( iteration"
            if kind is None or ir.notes.allowed("determinism", lineno):
                continue
            findings.append((
                fn.rel, lineno, "determinism",
                f"{kind} in {fn.qname} is reachable from "
                f"result-producing code ({witness(path)}); results "
                f"must be a pure function of the seed"))
    return findings


def analyze(tree: Tree) -> list[Finding]:
    """Every rule over ``tree``, sorted and deduplicated."""
    findings: list[Finding] = []
    for ir in tree.files.values():
        findings.extend((ir.rel, lineno, "annotation",
                         f"annotation names unknown or non-root rule "
                         f"'{name}'") for lineno, name in ir.notes.bad)
        # A root or hot annotation binds to the next definition below
        # it, so one inside a body would silently mark another function.
        for lineno in ir.notes.roots:
            owner = next((fn for fn in ir.functions
                          if fn.line < lineno <= fn.end_line), None)
            if owner is not None:
                findings.append((
                    ir.rel, lineno, "annotation",
                    f"root/hot annotation inside the body of "
                    f"{owner.qname}; move it above the definition"))
    knobs = known_knobs(tree)
    if knobs is None:
        findings.append((KNOB_FILE, 1, KNOB_RULE,
                         "no knownKnobs() listing DEWRITE_* names found; "
                         "the knob catalogue is missing"))
    for ir in tree.files.values():
        findings.extend(rule_lexical(ir, knobs or frozenset()))
    for rule in ROOT_RULES + ("hot-path-purity",):
        if not collect_roots(tree, rule):
            findings.append((
                "src", 0, rule,
                f"no function in the tree is a root of {rule}; the "
                "rule would vacuously pass (annotations deleted?)"))
    graph = CallGraph(tree)
    findings.extend(rule_shard_isolation(tree, graph))
    findings.extend(rule_hot_purity(tree, graph))
    findings.extend(rule_layering(tree))
    findings.extend(rule_determinism(tree, graph))
    unique: dict[tuple[str, int, str], Finding] = {}
    for row in findings:
        unique.setdefault(row[:3], row)
    return [unique[key] for key in sorted(unique)]


# --------------------------------------------------------------------
# Seeded-break check over the live tree
# --------------------------------------------------------------------

#: Deliberate violations seeded (in memory) into the live tree: one per
#: rule, plus an allocation a hot kernel reaches only through a check
#: macro and one it reaches only through an overloaded operator. Each
#: seed is (label, rule, file the finding must name, edits); an edit
#: (file, anchor, text) replaces the anchor's first occurrence, or
#: appends the text to the file when the anchor is None.
SEEDS = (
    ("no-std-hash-container", "no-std-hash-container",
     "src/common/flat_map.hh",
     [("src/common/flat_map.hh", None,
       "std::unordered_map<int, int> seededTable;")]),
    ("no-nondeterminism", "no-nondeterminism", "bench/bench_figures.cc",
     [("bench/bench_figures.cc", None,
       "static const int seededNoise = rand();")]),
    ("unsorted-iteration", "unsorted-iteration",
     "src/dedup/hash_store.cc",
     [("src/dedup/hash_store.cc", None,
       "void seededWalk(const dewrite::HashStore &store)\n"
       "{\n"
       "    store.forEach([](std::uint64_t, const auto &) {});\n"
       "}")]),
    ("no-raw-assert", "no-raw-assert", "src/sim/experiment.cc",
     [("src/sim/experiment.cc", None,
       "inline void seededAssert(int x) { assert(x > 0); }")]),
    ("env-getenv-funnel", "env-getenv-funnel",
     "tests/sim/experiment_env_test.cc",
     [("tests/sim/experiment_env_test.cc", None,
       "const char *seededHome = std::getenv(\"HOME\");")]),
    ("env-fail-fast", "env-fail-fast", "examples/quickstart.cpp",
     [("examples/quickstart.cpp", None,
       "const char *seededRaw = dewrite::envRaw(\"DEWRITE_EVENTS\");")]),
    ("env-knob-registry", "env-knob-registry", "src/sim/experiment.cc",
     [("src/sim/experiment.cc", None,
       "const auto seededKnob = envUint(\"DEWRITE_EVENT\", 1, 1, 2);")]),
    ("shard-isolation", "shard-isolation", "src/cpu/core_model.cc",
     [("src/cpu/core_model.cc", "    now_ = issueAt(event.instGap);",
       "    static std::uint64_t seededCrossShard = 0;\n"
       "    now_ = issueAt(event.instGap) + ++seededCrossShard * 0;")]),
    ("hot-path-purity", "hot-path-purity", "src/common/line.hh",
     [("src/common/line.hh", "            if (a != b)",
       "            seededScratch.push_back(a);\n"
       "            if (a != b)")]),
    ("layering", "layering", "src/common/line.hh",
     [("src/common/line.hh", "#include <array>",
       "#include <array>\n#include \"service/dedup_service.hh\"")]),
    ("determinism", "determinism", "src/cpu/core_model.cc",
     [("src/cpu/core_model.cc", "    now_ = issueAt(event.instGap);",
       "    now_ = issueAt(event.instGap) + static_cast<Time>(\n"
       "        std::chrono::steady_clock::now().time_since_epoch()\n"
       "            .count()) * 0;")]),
    # SecureBaselineController::write -> checkedIncrement ->
    # DEWRITE_CHECK -> seededTrace: the last edge exists only as the
    # macro's definition.
    ("check-macro edge", "hot-path-purity", "src/common/check.hh",
     [("src/common/check.hh", "::dewrite::detail::checkFailed(",
       "::dewrite::detail::seededTrace(); "
       "::dewrite::detail::checkFailed("),
      ("src/common/check.hh", None,
       "namespace dewrite {\n"
       "namespace detail {\n"
       "inline void seededTrace() { std::string trail(\"check\"); }\n"
       "} // namespace detail\n"
       "} // namespace dewrite")]),
    # The counter-mode kernels reach Line::operator^ only as 'a ^ b'.
    ("operator edge", "hot-path-purity", "src/common/line.cc",
     [("src/common/line.cc",
       "Line::operator^(const Line &other) const\n{\n",
       "Line::operator^(const Line &other) const\n{\n"
       "    std::vector<std::uint64_t> seededWords(kLineSize / 8);\n")]),
)

#: Callees each closure must reach through at least one call edge, so
#: a front-end regression that shrinks the closures to their roots
#: fails here instead of passing every rule vacuously. Each is reached
#: only through a member call (former_.flush,
#: fingerprinter_.fingerprint).
SENTINELS = (
    ("shard-isolation", "BatchFormer::flush"),
    ("determinism", "BatchFormer::flush"),
    ("hot-path-purity", "Fingerprinter::fingerprint"),
)


def apply_edits(sources: dict[str, str],
                edits: list[tuple[str, str | None, str]]
                ) -> dict[str, str] | str:
    """Patched copy of ``sources``, or an error message."""
    patched = dict(sources)
    for rel, anchor, text in edits:
        if rel not in patched:
            return f"seed file {rel} not found"
        if anchor is None:
            patched[rel] = patched[rel] + "\n" + text + "\n"
        elif anchor in patched[rel]:
            patched[rel] = patched[rel].replace(anchor, text, 1)
        else:
            return f"seed anchor not found in {rel}: {anchor!r}"
    return patched


def check_seeded_break() -> int:
    """Prove each rule and both synthetic edge kinds still have teeth
    on the live tree: a clean run, then every seed in SEEDS must fail
    with exactly its rule, at its file; then every SENTINELS callee
    must sit inside its closure."""
    sources = collect_sources()
    tree = load_tree(sources)
    clean = analyze(tree)
    if clean:
        report(clean)
        print("error: tree is not clean before seeding; fix the "
              "findings above first", file=sys.stderr)
        return 1
    for label, rule, where, edits in SEEDS:
        patched = apply_edits(sources, edits)
        if isinstance(patched, str):
            print(f"error: {label}: {patched}; update SEEDS in "
                  "tools/dewrite_analyze.py", file=sys.stderr)
            return 1
        rows = analyze(load_tree(patched, reuse=tree))
        fired = {row[2] for row in rows}
        if fired != {rule} or not any(row[0] == where for row in rows):
            report(rows)
            print(f"error: seed '{label}' should fail [{rule}] in "
                  f"{where} and nothing else; fired: "
                  f"{sorted(fired) or 'nothing'}", file=sys.stderr)
            return 1
        print(f"seeded break caught: [{rule}] in {where} ({label})")
    graph = CallGraph(tree)
    for rule, sentinel in SENTINELS:
        roots = collect_roots(tree, rule)
        closure = graph.reachable(roots)
        hit = next((fn for fn, path in closure.items()
                    if fn.qname.endswith(sentinel) and len(path) >= 2),
                   None)
        if hit is None:
            print(f"error: the {rule} closure ({len(closure)} functions "
                  f"from {len(roots)} roots) never reaches '{sentinel}' "
                  "through a call edge; call resolution has regressed",
                  file=sys.stderr)
            return 1
        print(f"sentinel reached: [{rule}] {len(closure)} functions; "
              f"{witness(closure[hit])}")
    print(f"dewrite_analyze seeded-break check: OK ({len(SEEDS)} seeds, "
          f"{len(SENTINELS)} sentinels)")
    return 0


# --------------------------------------------------------------------
# Self-test (synthetic files; no repo access)
# --------------------------------------------------------------------

MINI_COMMON = """\
namespace dewrite {
std::mutex reportMutex; // dewrite-owned: sync(reportMutex)
int sharedCounter;
// dewrite-lint: hot
inline int hotKernel(int x) { return helper(x) + 1; }
inline int helper(int x) {
    scratch.push_back(x);
    return x;
}
inline void coldHelper(std::vector<int> &v) { v.push_back(1); }
} // namespace dewrite
"""

MINI_SERVICE = """\
#include "common/util.hh"
#include "sim/system.hh"
namespace dewrite {
class ShardCore {
  public:
    // dewrite-analyze: root(shard-isolation)
    // dewrite-analyze: root(determinism)
    void drain() {
        touchGlobal();
        auto t = steady_clock::now();
        table.forEach([](int k) {});
    }
    void touchGlobal() {
        static int drained = 0;
        ++drained;
        sharedCounter += 1;
    }
};
} // namespace dewrite
"""

MINI_SIM = """\
#include "service/shard_core.hh"
namespace dewrite {
struct System {
    int run() { return 0; }
};
} // namespace dewrite
"""

MINI_ENV = """\
namespace dewrite {
const std::vector<const char *> &
knownKnobs()
{
    // "DEWRITE_IN_A_COMMENT" is not a knob
    static const std::vector<const char *> knobs = {
        "DEWRITE_AUDIT",
        "DEWRITE_AUDIT_EPOCH",
        "DEWRITE_THREADS",
    };
    return knobs;
}
} // namespace dewrite
"""


def mini_tree(overrides: dict[str, str] | None = None) -> Tree:
    """The synthetic tree with files replaced or added from
    ``overrides``; as written it violates every call-graph rule."""
    files = {"src/common/util.hh": MINI_COMMON,
             "src/service/shard_core.hh": MINI_SERVICE,
             "src/sim/system.hh": MINI_SIM,
             KNOB_FILE: MINI_ENV}
    files.update(overrides or {})
    return load_tree(files)


def lex(rel: str, text: str) -> list[tuple[int, str]]:
    """(line, rule) rows of the lexical rules on one synthetic file."""
    knobs = known_knobs(load_tree({KNOB_FILE: MINI_ENV}))
    return sorted((row[1], row[2])
                  for row in rule_lexical(parse_file(rel, text), knobs))


def self_test() -> int:
    # --- front-end: qualified names, methods, spans, calls ---
    ir = parse_file("src/service/x.cc", "\n".join([
        "namespace dewrite {",
        "void",
        "ShardCore::flush(BatchFormer::FlushReason reason)",
        "{",
        "    former_.flush(controller_, responses_.data(), reason);",
        "}",
        "ShardCore::ShardCore(const TimingConfig &timing)",
        "    : timing_(timing), controller_(controller)",
        "{",
        "    former_.reset(batch_capacity);",
        "}",
        "struct Inner {",
        "    int size() const { return n_; }",
        "};",
        "} // namespace dewrite",
    ]))
    names = sorted(fn.qname for fn in ir.functions)
    assert names == ["dewrite::Inner::size", "dewrite::ShardCore::" +
                     "ShardCore", "dewrite::ShardCore::flush"], names
    flush = next(fn for fn in ir.functions if fn.name == "flush")
    assert flush.line == 4 and flush.end_line == 6, \
        (flush.line, flush.end_line)
    assert ".flush" in flush.calls and ".data" in flush.calls

    # Control-flow parens and initializer braces are not functions.
    ir = parse_file("src/common/y.cc", "\n".join([
        "int values[] = { 1, 2, 3 };",
        "void fn() {",
        "    if (values[0]) {",
        "        for (int i = 0; i < 3; ++i) {}",
        "    }",
        "}",
    ]))
    assert [fn.qname for fn in ir.functions] == ["fn"], ir.functions
    # `values` is a namespace-scope mutable global.
    assert [(gv.name, gv.owner) for gv in ir.globals] == \
        [("values", None)], [(g.name, g.owner) for g in ir.globals]

    # A C++17 nested namespace definition qualifies its functions and
    # keeps its variables at namespace scope.
    ir = parse_file("src/obs/n.cc",
                    "namespace dewrite::obs {\nint hits;\n"
                    "void bump() { ++hits; }\n}")
    assert [fn.qname for fn in ir.functions] == ["dewrite::obs::bump"]
    assert [gv.name for gv in ir.globals] == ["hits"]

    # Static locals are attributed to their function; const ones are
    # not mutable state.
    ir = parse_file("src/common/z.hh", "\n".join([
        "inline int counter() {",
        "    static int hits = 0;",
        "    static const int limit = 9;",
        "    return ++hits < limit;",
        "}",
    ]))
    assert [(gv.name, gv.owner) for gv in ir.globals] == \
        [("hits", "counter")], [(g.name, g.owner) for g in ir.globals]

    # Multi-line function-like macros record the calls they make.
    assert parse_macros(strip_code([
        "#define CHECKED(cond, ...)   \\",
        "    do { if (!(cond)) report(#cond, __VA_ARGS__); } \\",
        "    while (false)",
        "#define OBJECT_LIKE 1",
    ])) == {"CHECKED": ["report", ".operator()"]}

    # --- the four call-graph rules on the synthetic tree ---
    rows = analyze(mini_tree())
    by_rule: dict[str, list[Finding]] = {}
    for row in rows:
        by_rule.setdefault(row[2], []).append(row)

    # shard-isolation: the unannotated static local and the mutable
    # namespace-scope global fire; the sync()-annotated mutex does not.
    iso = by_rule.get("shard-isolation", [])
    assert any("drained" in row[3] for row in iso), rows
    assert any("sharedCounter" in row[3] for row in iso), rows
    assert not any("reportMutex" in row[3] for row in iso), rows

    # hot-path-purity: the allocation in the *callee* of the hot
    # kernel fires (transitive closure); the never-called coldHelper
    # does not.
    pure = by_rule.get("hot-path-purity", [])
    assert any("helper" in row[3] and "hotKernel" in row[3]
               for row in pure), rows
    assert not any("coldHelper" in row[3] for row in pure), rows

    # layering: sim (layer 7) including service (layer 8) is a
    # back-edge; service including sim is a legal downward edge.
    lay = by_rule.get("layering", [])
    assert any(row[0] == "src/sim/system.hh" and
               "service" in row[3] for row in lay), rows
    assert not any(row[0] == "src/service/shard_core.hh"
                   for row in lay), rows

    # determinism: the wall-clock read and the unannotated forEach in
    # the drain root both fire. The forEach is also a lexical finding.
    det = by_rule.get("determinism", [])
    assert any("wall-clock" in row[3] for row in det), rows
    assert any("forEach" in row[3] for row in det), rows
    assert set(by_rule) == {"shard-isolation", "hot-path-purity",
                            "layering", "determinism",
                            "unsorted-iteration"}, rows

    # --- suppressions: either prefix, own-line or trailing ---
    fixed = MINI_SERVICE \
        .replace("        auto t = steady_clock::now();",
                 "        // dewrite-analyze: allow(determinism) host\n"
                 "        auto t = steady_clock::now();") \
        .replace("        table.forEach([](int k) {});",
                 "        // dewrite-lint: allow(unsorted-iteration)\n"
                 "        // the reason may wrap onto a second line\n"
                 "        table.forEach([](int k) {});") \
        .replace("        static int drained = 0;",
                 "        // dewrite-owned: shard\n"
                 "        static int drained = 0;") \
        .replace("        sharedCounter += 1;",
                 "        sharedCounter += 1; "
                 "// dewrite-analyze: allow(shard-isolation)")
    fixed_sim = MINI_SIM.replace(
        "#include \"service/shard_core.hh\"",
        "// dewrite-analyze: allow(layering) seeded test\n"
        "#include \"service/shard_core.hh\"")
    clean_common = MINI_COMMON.replace(
        "    scratch.push_back(x);",
        "    // dewrite-analyze: allow(hot-path-purity) fixed-cap\n"
        "    scratch.push_back(x);")
    clean = {"src/common/util.hh": clean_common,
             "src/service/shard_core.hh": fixed,
             "src/sim/system.hh": fixed_sim}
    assert analyze(mini_tree(clean)) == []

    # Deleting every root and hot annotation must NOT pass silently.
    rootless = dict(clean)
    rootless["src/service/shard_core.hh"] = fixed \
        .replace("// dewrite-analyze: root(shard-isolation)", "") \
        .replace("// dewrite-analyze: root(determinism)", "")
    rootless["src/common/util.hh"] = clean_common.replace(
        "// dewrite-lint: hot", "")
    rows = analyze(mini_tree(rootless))
    assert {row[2] for row in rows} == {"shard-isolation",
                                        "hot-path-purity",
                                        "determinism"}, rows
    assert all("vacuously" in row[3] for row in rows), rows

    # --- the two edge kinds the parser cannot see as calls ---
    # A hot kernel reaches an allocation through a macro chain (the
    # DEWRITE_DCHECK -> DEWRITE_CHECK shape) and through an operator
    # use; neither 'report' nor 'operator==' is written as a call.
    edges = dict(clean)
    edges["src/common/check.hh"] = "\n".join([
        "#define OUTER(c) INNER(c)",
        "#define INNER(c) do { if (!(c)) ::dewrite::report(); } "
        "while (0)",
        "namespace dewrite {",
        "inline void report() { std::string text(\"failed\"); }",
        "struct Key {",
        "    bool operator==(const Key &o) const {",
        "        return std::vector<int>(4) == o.v;",
        "    }",
        "};",
        "// dewrite-lint: hot",
        "inline void viaMacro(int c) { OUTER(c); }",
        "// dewrite-lint: hot",
        "inline bool viaOperator(Key a, Key b) { return a != b; }",
        "} // namespace dewrite",
    ])
    rows = analyze(mini_tree(edges))
    assert [(row[1], row[2]) for row in rows] == [
        (4, "hot-path-purity"), (7, "hot-path-purity")], rows
    assert "viaMacro -> dewrite::report" in rows[0][3], rows
    assert "viaOperator -> dewrite::Key::operator==" in rows[1][3], rows

    # Allocation shapes are values and temporaries, not bindings.
    for text in ("std::string s;", "f(std::string(p));",
                 "auto v = std::vector<int>{};", "std::deque<Line> q;"):
        assert ALLOC_RE.search(text), text
    for text in ("const std::string &s", "std::string_view v",
                 "std::vector<int> *p", "n == std::string::npos"):
        assert not ALLOC_RE.search(text), text

    # Unknown rule names, non-root rules in root(), and a hot
    # annotation inside a body are findings.
    rows = analyze(mini_tree({**clean, "src/common/a.hh": "\n".join([
        "// dewrite-analyze: allow(no-such-rule)",
        "// dewrite-lint: root(layering)",
        "inline int cold(int x)",
        "{",
        "    // dewrite-lint: hot",
        "    return x;",
        "}",
    ])}))
    assert [(row[1], row[2]) for row in rows] == [
        (1, "annotation"), (2, "annotation"), (5, "annotation")], rows
    assert "'no-such-rule'" in rows[0][3] and "'layering'" in rows[1][3] \
        and "body of cold" in rows[2][3], rows

    # --- the lexical rules ---
    seeded = "\n".join([
        "#include <unordered_map>",
        "std::unordered_map<int, int> m;",          # container   (2)
        "int r = rand();",                          # nondet      (3)
        "auto t = time(nullptr);",                  # nondet      (4)
        "std::hash<Foo *> h;",                      # nondet      (5)
        "table.forEach([](auto k, auto v) {});",    # unsorted    (6)
        "const char *e = std::getenv(\"DEWRITE_X\");",  # funnel   (7)
        "const char *f = envRaw(\"DEWRITE_Y\");",   # fail-fast   (8)
        "// std::unordered_set<int> in a comment is fine",
        "const char *s = \"rand( in a string is fine\";",
        "std::uint64_t n = envUint(\"DEWRITE_THRAEDS\", 1, 1, 8);",
        "std::uint64_t k = envUint(\"DEWRITE_THREADS\", 1, 1, 64);",
        "assert(x > 0);",                           # raw assert (13)
        "static_assert(sizeof(int) == 4, \"x\");",  # NOT raw: ok
        "DEWRITE_CHECK(x > 0, \"x\");",             # NOT raw: ok
    ])
    assert lex("src/seeded.cc", seeded) == [
        (2, "no-std-hash-container"),
        (3, "no-nondeterminism"),
        (4, "no-nondeterminism"),
        (5, "no-nondeterminism"),
        (6, "unsorted-iteration"),
        (7, "env-getenv-funnel"),
        (7, "env-knob-registry"),   # DEWRITE_X is not a knob
        (8, "env-fail-fast"),
        (8, "env-knob-registry"),   # neither is DEWRITE_Y
        (11, "env-knob-registry"),  # the typo'd DEWRITE_THRAEDS
        (13, "no-raw-assert"),
    ], lex("src/seeded.cc", seeded)

    # Own-line and trailing allow() suppress; allow-file suppresses
    # everywhere.
    assert lex("src/suppressed.cc", "\n".join([
        "// dewrite-lint: allow-file(no-nondeterminism)",
        "int r = rand();",
        "// dewrite-lint: allow(unsorted-iteration) stats dump only",
        "table.forEach([](auto k, auto v) {});",
        "m.forEach(f); // dewrite-analyze: allow(unsorted-iteration)",
    ])) == []

    # Scope: containers are legal in tests/ and bench/, getenv is not
    # legal in tests/, and the env funnel itself may call getenv.
    assert lex("tests/oracle.cc", "std::unordered_map<int, int> m;") == []
    assert lex("bench/oracle.cc", "std::unordered_set<int> s;") == []
    assert lex("tests/sneaky.cc", "getenv(\"PATH\");") != []
    assert lex("src/common/env.cc", "std::getenv(n);") == []
    assert lex("src/x.cc", "m.forEachSorted(f);") == []
    assert lex("tests/t.cc", "assert(ok);") == []
    assert lex("src/x.cc", "checker.assert(ok);") == []

    # env-knob-registry reads the catalogue from knownKnobs() (quoted
    # names in comments do not count), applies in tests/ too, honours
    # allow(), ignores calls inside comments, and exempts the env unit
    # test's fixture variable.
    assert known_knobs(load_tree({KNOB_FILE: MINI_ENV})) == {
        "DEWRITE_AUDIT", "DEWRITE_AUDIT_EPOCH", "DEWRITE_THREADS"}
    assert known_knobs(load_tree({KNOB_FILE: "int x;"})) is None
    assert lex("tests/t.cc", "setenv(\"DEWRITE_AUDIT\", \"1\", 1);") == []
    assert lex("tests/t.cc", "setenv(\"DEWRITE_BOGUS\", \"1\", 1);") == \
        [(1, "env-knob-registry")]
    assert lex("tests/t.cc",
               "// dewrite-lint: allow(env-knob-registry) fixture\n"
               "setenv(\"DEWRITE_BOGUS\", \"1\", 1);") == []
    assert lex("tests/t.cc", "// envUint(\"DEWRITE_BOGUS\")") == []
    assert lex("tests/common/env_test.cc",
               "setenv(\"DEWRITE_ENV_TEST_VAR\", \"1\", 1);") == []
    assert lex("src/t.cc", "envUint(\"DEWRITE_AUDIT_EPOH\", 1, 1, 8);") \
        == [(1, "env-knob-registry")]

    # A tree without the catalogue fails loudly instead of passing.
    rows = analyze(mini_tree({**clean, KNOB_FILE: "int x;"}))
    assert [(row[0], row[2]) for row in rows] == \
        [(KNOB_FILE, "env-knob-registry")], rows

    print("dewrite_analyze self-test: OK")
    return 0


# --------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------

def report(findings: list[Finding]) -> None:
    for rel, line, rule, message in findings:
        print(f"{rel}:{line}: [{rule}] {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 1)[1])
    parser.add_argument("paths", nargs="*",
                        help="report only findings in these repo-relative "
                             "files or directories (the analysis stays "
                             "whole-tree)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="run the synthetic-file self-test")
    parser.add_argument("--check-seeded-break", action="store_true",
                        help="verify each rule catches a deliberate "
                             "violation seeded into the live tree")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(__doc__[__doc__.index("Lexical rules"):
                      __doc__.index("\nCall graph\n")].rstrip())
        return 0
    if args.self_test:
        return self_test()
    if args.check_seeded_break:
        return check_seeded_break()

    tree = load_tree(collect_sources())
    if not any(rel.startswith("src/") for rel in tree.files):
        print("error: no src/ sources found", file=sys.stderr)
        return 2
    findings = [row for row in analyze(tree)
                if not args.paths or any(
                    row[0] == only.rstrip("/")
                    or row[0].startswith(only.rstrip("/") + "/")
                    for only in args.paths)]
    if findings:
        report(findings)
        print(f"\ndewrite-analyze: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"dewrite-analyze clean: {len(tree.files)} files, "
          f"{len(tree.all_functions())} functions, "
          f"{len(RULE_NAMES)} rules")
    return 0


if __name__ == "__main__":
    sys.exit(main())
