#!/usr/bin/env python3
"""Determinism lint for the dasched codebase.

The repo's core guarantee is bit-identical results across thread counts and
platforms (docs/PERFORMANCE.md, the golden-fingerprint tests). Three C++
patterns quietly break that guarantee long before a test notices:

  unordered-iteration   iterating a std::unordered_map/unordered_set: the
                        visit order depends on the hash function, libstdc++
                        version, and insertion history. Fine for lookups;
                        poison when the iteration feeds output, scheduling
                        decisions, or accumulation.
  raw-rng               std::random_device, time()-seeded engines, rand():
                        nondeterministic entropy sources. All randomness must
                        flow through util/rng.hpp's seeded SplitMix64 (and
                        the k-wise family built on it), so runs replay from
                        the seed alone.
  float-accumulation    `+=` / `-=` on a float/double in a file that uses the
                        thread pool: float addition is not associative, so
                        sharded reduction order changes the result. Integer
                        accumulators or a fixed reduction order are required.
  pointer-key           iterating a std::map/std::set keyed on a pointer type:
                        the comparator orders raw addresses, so the visit
                        order is whatever the allocator handed out this run.
                        Ordered containers only restore determinism when the
                        key itself is deterministic -- key on ids (NodeId,
                        EdgeId, job id) instead, or sort by a stable field
                        before iterating.
  hot-path-vector       an owning std::vector member of a struct/class under
                        src/congest/: the message hot path is allocation-free
                        in steady state (docs/PERFORMANCE.md, "Memory layout &
                        allocation budget"), and a per-instance vector is how
                        per-message allocation sneaks back in. Store data
                        inline, use a recycled arena, or annotate the member
                        with `perf-ok` (arena/capacity-reused vectors) or
                        `det-ok: hot-path-vector`.
  heap-program          an override of DistributedAlgorithm::make_program or
                        NodeProgram::output(): the heap-allocating pair that
                        the base construct_program/write_output adapt. Every
                        algorithm in the linted paths builds its programs in
                        the executor's arena (construct_program) and appends
                        its outputs to the flat table (write_output); the
                        adapters stay for perfbench/ only.

This is a line-based heuristic lint, not a compiler: it trades soundness for
zero dependencies. False positives are suppressed inline with

    // det-ok: <rule> [reason]

on the offending line or the line directly above it, e.g.

    for (const auto& [k, v] : cache_) {  // det-ok: unordered-iteration -- stats only

Usage:
    tools/lint_determinism.py [--self-test] [paths...]
Paths default to src/. Exit status: 0 clean, 1 findings, 2 usage/self-test
failure.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SUPPRESS_RE = re.compile(r"//\s*det-ok:\s*([a-z-]+)")

# Identifiers declared as unordered containers anywhere in the same file.
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*&?\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*[;,={(\[]"
)
# Ordered associative containers: nondeterministic to iterate only when the
# key type is a pointer (the comparator orders raw addresses). The key is the
# text before the first top-level comma of the template args -- a heuristic
# that matches this codebase's style.
ORDERED_DECL_RE = re.compile(
    r"std::(?:map|set|multimap|multiset)\s*<(?P<args>[^;{]*?)>\s*&?\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*[;,={(\[]"
)


def pointer_keyed(args: str) -> bool:
    return "*" in args.split(",", 1)[0]


# Range-for over an identifier, or .begin()/.cbegin() calls on it.
RANGE_FOR_RE = re.compile(r"for\s*\([^;)]*?:\s*(?P<name>[A-Za-z_]\w*)\s*\)")
BEGIN_RE = re.compile(r"(?P<name>[A-Za-z_]\w*)\s*\.\s*c?begin\s*\(")

RAW_RNG_RE = re.compile(
    r"std::random_device|std::mt19937|std::default_random_engine"
    r"|\bsrand\s*\(|\brand\s*\(\)"
)
TIME_SEED_RE = re.compile(
    r"(?:seed|Rng|engine)[^;\n]*\b(?:time\s*\(|chrono::.*now)"
)

FLOAT_DECL_RE = re.compile(
    r"\b(?:float|double)\s+&?\s*(?P<name>[A-Za-z_]\w*)\s*[;=({]"
)
FLOAT_ACCUM_RE = re.compile(r"(?P<name>[A-Za-z_]\w*)\s*[+\-]=")
THREADED_RE = re.compile(r"ThreadPool|parallel_for|util/parallel")

# Directories whose struct/class members sit on the message hot path.
HOT_PATH_DIRS = ("src/congest/",)
# An owning vector member: `std::vector<...> name;` (or with initializer).
VECTOR_MEMBER_RE = re.compile(
    r"\bstd::vector\s*<.*>\s+[A-Za-z_]\w*\s*(?:;|=|\{)"
)
# A struct/class head opening a record body (template params stripped first so
# `template <class T>` does not look like a record head).
RECORD_HEAD_RE = re.compile(r"\b(?:struct|class)\b[^;=]*$")
PERF_OK_RE = re.compile(r"//\s*perf-ok")

# Overrides of the heap-allocating program hooks: an in-class declaration
# marked override/final, or an out-of-class definition Type::hook(...). The
# base class's own virtual declarations match neither.
HEAP_PROGRAM_RE = re.compile(
    r"\b(?:make_program\s*\([^)]*\)|output\s*\(\s*\)\s*const)[^;{]*\b(?:override|final)\b"
    r"|\w+::(?:make_program\s*\(|output\s*\(\s*\)\s*const)"
)

# util/rng.hpp is the one sanctioned home of raw engines; the lint itself and
# third-party code are out of scope.
RAW_RNG_EXEMPT = ("util/rng.hpp",)



def strip_strings_and_comments(line: str) -> str:
    """Removes string/char literals and // comments so patterns cannot match
    inside them. (Block comments are rare in this codebase and line-local.)"""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == '/' and i + 1 < n and line[i + 1] == '/':
            break
        if c in ('"', "'"):
            quote = c
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == '\\' else 1
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Finding:
    def __init__(self, path: Path, lineno: int, rule: str, message: str):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}: [{self.rule}] {self.message}"


def suppressed(rule: str, lines: list[str], idx: int) -> bool:
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines):
            m = SUPPRESS_RE.search(lines[probe])
            if m and m.group(1) == rule:
                return True
    return False


def perf_ok(lines: list[str], idx: int) -> bool:
    """`// perf-ok [reason]` on the line or the line above: the member is an
    arena/capacity-recycled buffer, not a per-message allocation."""
    for probe in (idx, idx - 1):
        if 0 <= probe < len(lines) and PERF_OK_RE.search(lines[probe]):
            return True
    return False


def record_member_lines(code: list[str]) -> set[int]:
    """Indices of lines whose innermost enclosing scope (at line start) is a
    struct/class body -- i.e. lines declaring members, not locals. A simple
    brace tracker: each `{` is classified by the text accumulated since the
    last `{`, `}`, or `;` at its level."""
    stack: list[str] = []
    buf = ""
    member_lines: set[int] = set()
    for idx, line in enumerate(code):
        if stack and stack[-1] == "record":
            member_lines.add(idx)
        for ch in line:
            if ch == "{":
                head = re.sub(r"<[^<>]*>", "", buf)
                stack.append("record" if RECORD_HEAD_RE.search(head) else "other")
                buf = ""
            elif ch == "}":
                if stack:
                    stack.pop()
                buf = ""
            elif ch == ";":
                buf = ""
            else:
                buf += ch
        buf += " "
    return member_lines


def lint_file(path: Path) -> list[Finding]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        return [Finding(path, 0, "io", f"unreadable: {err}")]
    lines = text.splitlines()
    code = [strip_strings_and_comments(l) for l in lines]
    findings: list[Finding] = []
    rel = path.as_posix()

    # --- unordered-iteration ---
    unordered_names = {m.group("name") for l in code for m in UNORDERED_DECL_RE.finditer(l)}
    if unordered_names:
        for idx, l in enumerate(code):
            names = {m.group("name") for m in RANGE_FOR_RE.finditer(l)}
            names |= {m.group("name") for m in BEGIN_RE.finditer(l)}
            for name in sorted(names & unordered_names):
                if suppressed("unordered-iteration", lines, idx):
                    continue
                findings.append(Finding(
                    path, idx + 1, "unordered-iteration",
                    f"iterating unordered container '{name}': visit order is "
                    "hash-dependent; use an ordered container or sort first",
                ))

    # --- pointer-key ---
    ptr_keyed_names = {
        m.group("name")
        for l in code
        for m in ORDERED_DECL_RE.finditer(l)
        if pointer_keyed(m.group("args"))
    }
    if ptr_keyed_names:
        for idx, l in enumerate(code):
            names = {m.group("name") for m in RANGE_FOR_RE.finditer(l)}
            names |= {m.group("name") for m in BEGIN_RE.finditer(l)}
            for name in sorted(names & ptr_keyed_names):
                if suppressed("pointer-key", lines, idx):
                    continue
                findings.append(Finding(
                    path, idx + 1, "pointer-key",
                    f"iterating '{name}', an ordered container keyed on a "
                    "pointer: visit order follows raw addresses, which the "
                    "allocator hands out nondeterministically; key on a "
                    "stable id instead",
                ))

    # --- raw-rng ---
    if not any(rel.endswith(exempt) for exempt in RAW_RNG_EXEMPT):
        for idx, l in enumerate(code):
            if RAW_RNG_RE.search(l) or TIME_SEED_RE.search(l):
                if suppressed("raw-rng", lines, idx):
                    continue
                findings.append(Finding(
                    path, idx + 1, "raw-rng",
                    "nondeterministic randomness source; route through the "
                    "seeded Rng in util/rng.hpp",
                ))

    # --- float-accumulation (only in files that touch the thread pool) ---
    if any(THREADED_RE.search(l) for l in code):
        float_names = {m.group("name") for l in code for m in FLOAT_DECL_RE.finditer(l)}
        for idx, l in enumerate(code):
            for m in FLOAT_ACCUM_RE.finditer(l):
                name = m.group("name")
                if name not in float_names:
                    continue
                if suppressed("float-accumulation", lines, idx):
                    continue
                findings.append(Finding(
                    path, idx + 1, "float-accumulation",
                    f"'{name} +=' on a float in threaded code: float addition "
                    "is not associative, so shard order changes the sum; "
                    "accumulate in integers or fix the reduction order",
                ))

    # --- heap-program ---
    for idx, l in enumerate(code):
        if HEAP_PROGRAM_RE.search(l) and not suppressed("heap-program", lines, idx):
            findings.append(Finding(
                path, idx + 1, "heap-program",
                "override of make_program/output(): build the program with "
                "construct_program (arena.make<P>) and append outputs with "
                "write_output (src/congest/program.hpp)",
            ))

    # --- hot-path-vector (only for struct/class members under src/congest/) ---
    if any(d in rel for d in HOT_PATH_DIRS):
        for idx in sorted(record_member_lines(code)):
            if not VECTOR_MEMBER_RE.search(code[idx]):
                continue
            if suppressed("hot-path-vector", lines, idx) or perf_ok(lines, idx):
                continue
            findings.append(Finding(
                path, idx + 1, "hot-path-vector",
                "owning std::vector member in a hot-path struct: the steady-"
                "state message path must not allocate (docs/PERFORMANCE.md); "
                "store inline, recycle an arena, or annotate with perf-ok",
            ))
    return findings


def lint_paths(paths: list[Path]) -> list[Finding]:
    findings: list[Finding] = []
    for root in paths:
        files = sorted(root.rglob("*")) if root.is_dir() else [root]
        for f in files:
            if f.suffix in (".cpp", ".hpp", ".cc", ".h"):
                findings.extend(lint_file(f))
    return findings


SELF_TEST_BAD = """\
#include <unordered_map>
std::unordered_map<int, int> counts;
double total = 0.0;
std::map<Node*, int> owners;
std::set<int> ordered_ids;
void f(ThreadPool& pool) {
  for (const auto& [k, v] : counts) { total += v; }
  std::random_device rd;
  for (const auto& [node, count] : owners) { }
  for (int id : ordered_ids) { }
}
void g() {
  for (const auto& [k, v] : counts) {  // det-ok: unordered-iteration -- stats
  }
  // det-ok: raw-rng -- entropy probe for diagnostics only
  std::random_device rd2;
  for (const auto& [node, count] : owners) { }  // det-ok: pointer-key -- debug dump
}
"""

SELF_TEST_EXPECT = [
    (7, "unordered-iteration"),
    (7, "float-accumulation"),
    (8, "raw-rng"),
    (9, "pointer-key"),
]

# Exercises the heap-program rule: overrides (in-class and out-of-class) are
# flagged; the base class's virtual declarations, calls, the arena hooks and
# a suppressed override are not.
SELF_TEST_HEAP_PROGRAM = """\
class Base {
  virtual std::unique_ptr<NodeProgram> make_program(NodeId node) const;
  virtual std::vector<std::uint64_t> output() const { return {}; }
};
class P final : public NodeProgram {
  std::vector<std::uint64_t> output() const override { return {1}; }
  void write_output(std::vector<std::uint64_t>& words) const override {}
};
class A final : public DistributedAlgorithm {
  std::unique_ptr<NodeProgram> make_program(NodeId node) const override;
  NodeProgram& construct_program(NodeId node, ProgramArena& arena) const override;
};
std::unique_ptr<NodeProgram> A::make_program(NodeId node) const { return nullptr; }
void use(const Base& b) { auto p = b.make_program(0); auto o = p->output(); }
// det-ok: heap-program -- adapter exercised on purpose
std::vector<std::uint64_t> output() const override { return {}; }
"""

SELF_TEST_HEAP_PROGRAM_EXPECT = [
    (6, "heap-program"),
    (10, "heap-program"),
    (13, "heap-program"),
]

# Exercises the hot-path-vector rule: must live under src/congest/ (the rule
# is path-gated), flag only *members*, and honor both suppression spellings.
SELF_TEST_HOT_PATH = """\
#include <vector>
struct Inbox {
  std::vector<int> messages;
  // perf-ok: arena -- capacity recycled across rounds
  std::vector<int> arena;
  std::vector<int> pool;  // det-ok: hot-path-vector -- rebuilt once per run
  int count = 0;
};
void local_vectors_are_fine() {
  std::vector<int> scratch;
  for (int i = 0; i < 4; ++i) scratch.push_back(i);
}
"""

SELF_TEST_HOT_PATH_EXPECT = [
    (3, "hot-path-vector"),
]

def self_test() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.cpp"
        bad.write_text(SELF_TEST_BAD, encoding="utf-8")
        found = [(f.lineno, f.rule) for f in lint_file(bad)]
        congest = Path(tmp) / "src" / "congest"
        congest.mkdir(parents=True)
        hot = congest / "hot.hpp"
        hot.write_text(SELF_TEST_HOT_PATH, encoding="utf-8")
        found_hot = [(f.lineno, f.rule) for f in lint_file(hot)]
        # The same file outside src/congest/ must be exempt from the rule.
        elsewhere = Path(tmp) / "hot.hpp"
        elsewhere.write_text(SELF_TEST_HOT_PATH, encoding="utf-8")
        found_elsewhere = [(f.lineno, f.rule) for f in lint_file(elsewhere)]
        heap = Path(tmp) / "heap.cpp"
        heap.write_text(SELF_TEST_HEAP_PROGRAM, encoding="utf-8")
        found_heap = [(f.lineno, f.rule) for f in lint_file(heap)]
    ok = True
    if sorted(found) != sorted(SELF_TEST_EXPECT):
        print(f"self-test FAILED: expected {sorted(SELF_TEST_EXPECT)}, got {sorted(found)}",
              file=sys.stderr)
        ok = False
    if sorted(found_hot) != sorted(SELF_TEST_HOT_PATH_EXPECT):
        print(f"self-test FAILED (hot-path-vector): expected "
              f"{sorted(SELF_TEST_HOT_PATH_EXPECT)}, got {sorted(found_hot)}",
              file=sys.stderr)
        ok = False
    if found_elsewhere:
        print(f"self-test FAILED (hot-path-vector path gate): expected no "
              f"findings outside src/congest/, got {sorted(found_elsewhere)}",
              file=sys.stderr)
        ok = False
    if sorted(found_heap) != sorted(SELF_TEST_HEAP_PROGRAM_EXPECT):
        print(f"self-test FAILED (heap-program): expected "
              f"{sorted(SELF_TEST_HEAP_PROGRAM_EXPECT)}, got {sorted(found_heap)}",
              file=sys.stderr)
        ok = False
    if not ok:
        return 2
    print("self-test passed: 8 seeded findings caught, 13 suppressions/gates honored")
    return 0


def main(argv: list[str]) -> int:
    args = argv[1:]
    if "--self-test" in args:
        return self_test()
    paths = [Path(a) for a in args] or [Path("src")]
    for p in paths:
        if not p.exists():
            print(f"no such path: {p}", file=sys.stderr)
            return 2
    findings = lint_paths(paths)
    for f in findings:
        print(f)
    if findings:
        print(f"\n{len(findings)} finding(s). Suppress intentional uses with "
              "'// det-ok: <rule> [reason]'.", file=sys.stderr)
        return 1
    print(f"determinism lint clean over {', '.join(str(p) for p in paths)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
