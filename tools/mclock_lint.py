#!/usr/bin/env python3
"""mclock-lint: the repo's determinism & API-contract rule engine.

The simulator's core promise is bit-identical output for any execution
width (--jobs, --shards workers). A handful of C++ idioms silently
break that promise (hash-order iteration, wall-clock reads) or weaken
an API contract (dropped gate results, taxonomy drift, unaudited host
threads). Each is mechanical to detect with text analysis, so this
tool does — one rule per failure class, over the file list the build
actually compiles (compile_commands.json), with a written-reason
allowlist for the audited exceptions:

  R1-unordered-iter  Iterating an unordered container in a
      deterministic path (src/sim, src/core, src/pfra, src/policies,
      src/vm, src/trace, src/debug) observes hash order, which libc++
      and libstdc++ do not agree on — goldens diverge by platform.
      Declaring one is fine (point lookups are order-free); iterating
      one must carry `// mclock-lint: unordered-iter-ok(<reason>)` on
      the iteration, or on the container's declaration when the
      container is never iterated at all.

  R2-wall-clock  Wall-clock/entropy calls (std::chrono *_clock::now,
      rand, srand, std::random_device, time()) anywhere outside
      src/harness/benchmark.cc — the one file whose whole job is
      host timing. Simulated time must come from the simulated clock
      and randomness from the seeded Rng. Observation-only uses
      (wall_seconds metrics, manifest timestamps) carry
      `// mclock-lint: wall-clock-ok(<reason>)`.

  R3-nodiscard  Result-carrying gate APIs must be [[nodiscard]]: the
      MigrateResult struct itself, and the memcg charge-gate
      predicates (withinMax, lowProtected, consumePromoteCredit,
      hasPromoteCredit) on their declarations. A dropped result is a
      skipped rollback or an unenforced quota.

  R4-taxonomy  The observability taxonomy cross-check: VmItem /
      TraceEventType / ViolationCode enums, their name tables, the
      DESIGN.md 6a/6c tables, and the violation-injection test suite
      must agree exactly.

  R5-thread-spawn  Every std::thread / std::jthread object or
      container declared under src/ starts host threads beside the
      --jobs pool, so each one is an audited site: it must carry
      `// mclock-lint: thread-ok(<reason>)` saying who joins it and
      what it may touch. `std::thread::` static calls
      (hardware_concurrency) declare nothing and are not flagged.

  R6-isa-dispatch  No `__builtin_cpu_supports` and no `target(...)`
      function attribute under src/. A runtime-dispatched second
      implementation of a hot loop doubles what the goldens must pin
      and hides from the build's baseline ISA; the LLC tag compare is
      baseline SSE2 on x86-64 for that reason. There is no allowlist:
      a new ISA path is a design change, not an audited exception.

  R7-clock-write  Simulated time moves at one choke point: the only
      write to `now_` under src/ is inside a function named `advance`
      (Simulator::advance). Any other assignment, compound assignment
      or increment of `now_` is an error, so a future time ledger
      sees every ns. There is no allowlist.

Every allowlist annotation must carry a non-empty reason inside the
parentheses; a bare annotation is itself an error.

Usage:
  mclock_lint.py [--root DIR] [--rules R1,R2,... | all]
                 [--compile-commands PATH] [--files FILE...]

With --files, the text rules (R1-R3, R5-R7) run on exactly those files
(fixture mode); otherwise the file list is derived from the
compilation database (TUs under src/ plus their sibling headers). R4
always analyzes the tree at --root. Exit 0 clean, 1 on findings.
"""

import argparse
import json
import pathlib
import re
import sys


ANNOTATION_RE = re.compile(r"//\s*mclock-lint:\s*([a-z-]+)(?:\(([^)]*)\))?")

# How many lines above a site an annotation may sit (blank/comment
# lines included) and still attach to it.
ANNOTATION_REACH = 2


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        where = f"{self.path}:{self.line}" if self.line else f"{self.path}"
        return f"mclock_lint: [{self.rule}] {where}: {self.message}"


class SourceFile:
    """One file plus its parsed `// mclock-lint:` annotations."""

    def __init__(self, path, display):
        self.path = path
        self.display = display  # root-relative, for messages
        self.lines = path.read_text(encoding="utf-8").splitlines()
        # line number (1-based) -> (kind, reason or None)
        self.annotations = {}
        for i, line in enumerate(self.lines, 1):
            m = ANNOTATION_RE.search(line)
            if m:
                self.annotations[i] = (m.group(1), m.group(2))

    def annotation_for(self, kind, lineno):
        """Annotation of `kind` on `lineno` or within reach above it."""
        for cand in range(lineno, lineno - ANNOTATION_REACH - 1, -1):
            ann = self.annotations.get(cand)
            if ann and ann[0] == kind:
                return cand, ann[1]
        return None


def strip_comments_keep_lines(lines):
    """Comment-free copy of `lines`, same line numbering."""
    text = "\n".join(lines)
    # Block comments become equivalent newlines; line comments vanish.
    def blank(m):
        return "\n" * m.group(0).count("\n")

    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.S)
    text = re.sub(r"//[^\n]*", "", text)
    return text.splitlines()


# --- R1: unordered-container iteration ---------------------------------

R1_DIRS = ("src/sim", "src/core", "src/pfra", "src/policies", "src/vm",
           "src/trace", "src/debug")
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*>\s+(\w+)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*([^)]+)\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")


def rule_r1(src, findings):
    if not src.display.startswith(R1_DIRS):
        return
    code = strip_comments_keep_lines(src.lines)

    # Declared unordered containers, and whether the declaration itself
    # carries an audit annotation (meaning: never iterated, point
    # lookups only — which exempts every use of that name).
    exempt_names = set()
    names = {}
    for i, line in enumerate(code, 1):
        for m in UNORDERED_DECL_RE.finditer(line):
            name = m.group(1)
            names[name] = i
            if check_annotation(src, "unordered-iter-ok", i, findings,
                                "R1-unordered-iter"):
                exempt_names.add(name)

    def flag(lineno, what):
        if check_annotation(src, "unordered-iter-ok", lineno, findings,
                            "R1-unordered-iter"):
            return
        findings.append(Finding(
            "R1-unordered-iter", src.display, lineno,
            f"iteration over unordered container {what} observes hash "
            f"order in a deterministic path; make the order explicit "
            f"or annotate `// mclock-lint: unordered-iter-ok(<reason>)`"))

    for i, line in enumerate(code, 1):
        m = RANGE_FOR_RE.search(line)
        if m:
            expr = m.group(1).strip()
            ids = set(re.findall(r"\w+", expr))
            hits = ids & set(names)
            if "unordered_" in expr or (hits and not hits & exempt_names):
                flag(i, f"`{expr}`")
                continue
        m = BEGIN_CALL_RE.search(line)
        if m and m.group(1) in names and m.group(1) not in exempt_names:
            flag(i, f"`{m.group(1)}`")


# --- R2: wall-clock / entropy ------------------------------------------

R2_EXEMPT_FILES = ("src/harness/benchmark.cc",)
R2_PATTERNS = (
    (re.compile(r"std::chrono::\w*_clock::now"), "wall-clock read"),
    (re.compile(r"(?<![\w_.])s?rand\s*\("), "libc PRNG"),
    (re.compile(r"std::random_device"), "hardware entropy"),
    (re.compile(r"(?<![\w_.])time\s*\("), "wall-clock read"),
)


def rule_r2(src, findings):
    if not src.display.startswith("src/"):
        return
    if src.display in R2_EXEMPT_FILES:
        return
    code = strip_comments_keep_lines(src.lines)
    for i, line in enumerate(code, 1):
        for pat, what in R2_PATTERNS:
            if not pat.search(line):
                continue
            if check_annotation(src, "wall-clock-ok", i, findings,
                                "R2-wall-clock"):
                continue
            findings.append(Finding(
                "R2-wall-clock", src.display, i,
                f"{what} in simulation code: results must depend only "
                f"on the simulated clock and the seeded Rng; move it to "
                f"src/harness/benchmark.cc or annotate "
                f"`// mclock-lint: wall-clock-ok(<reason>)`"))


# --- R3: [[nodiscard]] on gate APIs ------------------------------------

R3_NODISCARD_STRUCTS = ("MigrateResult",)
R3_GATE_FUNCS = ("withinMax", "lowProtected", "consumePromoteCredit",
                 "hasPromoteCredit")
R3_STRUCT_RE = re.compile(
    r"^\s*struct\s+(" + "|".join(R3_NODISCARD_STRUCTS) + r")\b")
R3_FUNC_RE = re.compile(
    r"(\[\[nodiscard\]\]\s*)?\bbool\s+("
    + "|".join(R3_GATE_FUNCS) + r")\s*\(")
R3_BARE_NAME_RE = re.compile(
    r"^\s*(" + "|".join(R3_GATE_FUNCS) + r")\s*\(")


def rule_r3(src, findings):
    if not src.display.endswith((".hh", ".h")):
        return  # declarations only; qualified definitions inherit
    code = strip_comments_keep_lines(src.lines)
    for i, line in enumerate(code, 1):
        prev = code[i - 2] if i >= 2 else ""
        m = R3_STRUCT_RE.match(line)
        if m and "[[nodiscard]]" not in line and \
                "[[nodiscard]]" not in prev:
            findings.append(Finding(
                "R3-nodiscard", src.display, i,
                f"struct {m.group(1)} must be declared "
                f"`struct [[nodiscard]] {m.group(1)}`: a dropped "
                f"result skips rollback/retry handling"))
        m = R3_FUNC_RE.search(line)
        name = None
        if m and "::" not in line.split("(")[0]:
            if not m.group(1) and "[[nodiscard]]" not in prev:
                name, where = m.group(2), i
        else:
            # gem5 style: return type on the previous line.
            m = R3_BARE_NAME_RE.match(line)
            if m and re.search(r"\bbool\b", prev) and \
                    "[[nodiscard]]" not in prev and \
                    "[[nodiscard]]" not in (code[i - 3] if i >= 3 else ""):
                name, where = m.group(1), i
        if name:
            findings.append(Finding(
                "R3-nodiscard", src.display, where,
                f"charge-gate API {name}() must be [[nodiscard]]: the "
                f"result is the admission decision"))


# --- R5: thread spawns --------------------------------------------------

R5_THREAD_RE = re.compile(r"\bstd::j?thread\b(?!\s*::)")


def rule_r5(src, findings):
    if not src.display.startswith("src/"):
        return
    code = strip_comments_keep_lines(src.lines)
    for i, line in enumerate(code, 1):
        if not R5_THREAD_RE.search(line):
            continue
        if check_annotation(src, "thread-ok", i, findings,
                            "R5-thread-spawn"):
            continue
        findings.append(Finding(
            "R5-thread-spawn", src.display, i,
            "std::thread/std::jthread declared without an audit: every "
            "host thread the simulator starts runs beside the --jobs "
            "pool; say who joins it and what it touches in "
            "`// mclock-lint: thread-ok(<reason>)`"))


# --- R6: runtime ISA dispatch -----------------------------------------

R6_PATTERNS = (
    (re.compile(r"__builtin_cpu_(?:supports|is|init)\b"),
     "runtime CPU check"),
    # __attribute__((..., target("avx2"))), [[gnu::target_clones(...)]]
    (re.compile(r"(?:__attribute__\s*\(\(|\[\[)[^;{]*?"
                r"\b(?:__)?target(?:_clones)?(?:__)?\s*\("),
     "target attribute"),
)


def rule_r6(src, findings):
    if not src.display.startswith("src/"):
        return
    code = strip_comments_keep_lines(src.lines)
    for i, line in enumerate(code, 1):
        for pat, what in R6_PATTERNS:
            if pat.search(line):
                findings.append(Finding(
                    "R6-isa-dispatch", src.display, i,
                    f"{what}: a runtime-dispatched second code path; "
                    f"keep one implementation in the build's baseline "
                    f"ISA (SSE2 on x86-64)"))


# --- R7: the one clock write ------------------------------------------

R7_WRITE_RE = re.compile(
    r"(?:\+\+|--)\s*now_\b"
    r"|\bnow_\s*(?:\+\+|--|(?:[-+*/%&|^]|<<|>>)?=(?!=))")
# A declaration's initialiser (`SimTime now_ = 0;`) writes nothing.
R7_DECL_RE = re.compile(r"[\w>]\s+$")
# String and character literals, whose braces open no block.
R7_LITERAL_RE = re.compile(r"\"(?:\\.|[^\"\\])*\"|'(?:\\.|[^'\\])*'")
# The head of a function body: a name, its parameter list, then `{`.
R7_FUNC_HEAD_RE = re.compile(
    r"(\w+)\s*\([^(){};]*\)\s*(?:const\s*)?(?:noexcept\s*)?$")


def r7_writes(segment):
    return any(not R7_DECL_RE.search(segment[:m.start()])
               for m in R7_WRITE_RE.finditer(segment))


def rule_r7(src, findings):
    if not src.display.startswith("src/"):
        return
    code = strip_comments_keep_lines(src.lines)
    # Enclosing blocks, innermost last, each tagged with the name of
    # the function its `{` opens (None for any other block).
    stack = []
    head = ""
    for i, line in enumerate(code, 1):
        line = R7_LITERAL_RE.sub('""', line)
        pos = 0
        for m in re.finditer(r"[{};]", line + ";"):
            segment = line[pos:m.start()]
            if r7_writes(segment) and "advance" not in stack:
                findings.append(Finding(
                    "R7-clock-write", src.display, i,
                    "write to now_ outside advance(): simulated time "
                    "moves only through Simulator::advance, its one "
                    "choke point"))
            if m.start() == len(line):
                head += segment + " "
                break
            head += segment
            if m.group() == "{":
                fn = R7_FUNC_HEAD_RE.search(head.strip())
                stack.append(fn.group(1) if fn else None)
            elif m.group() == "}" and stack:
                stack.pop()
            head = ""
            pos = m.end()


# --- shared annotation handling ----------------------------------------


def check_annotation(src, kind, lineno, findings, rule):
    """True if `kind` covers `lineno`; flags reason-less annotations."""
    hit = src.annotation_for(kind, lineno)
    if not hit:
        return False
    ann_line, reason = hit
    if not (reason or "").strip():
        findings.append(Finding(
            rule, src.display, ann_line,
            f"allowlist annotation `{kind}` needs a written reason: "
            f"`// mclock-lint: {kind}(<why this is safe>)`"))
    return True


# --- R4: observability taxonomy ----------------------------------------


def parse_enum(text, enum_name, path):
    m = re.search(
        r"enum\s+class\s+" + enum_name + r"\s*(?::[^({]*)?\{(.*?)\}",
        text, re.S)
    if not m:
        raise SystemExit(f"mclock_lint: enum {enum_name} not found "
                         f"in {path}")
    body = re.sub(r"//[^\n]*|/\*.*?\*/", "", m.group(1), flags=re.S)
    names = []
    for entry in body.split(","):
        entry = entry.split("=")[0].strip()
        if entry and entry not in ("NumItems", "NumCodes"):
            names.append(entry)
    return names


def parse_name_table(text, enum_name):
    return dict(re.findall(
        r"case\s+" + enum_name + r"::(\w+)\s*:\s*return\s+\"([^\"]+)\"",
        text))


def backticked(text):
    return set(re.findall(r"`([a-z0-9_]+)`", text))


def design_section(design, heading):
    m = re.search(
        r"^## " + re.escape(heading) + r"[^\n]*\n(.*?)(?=^## |\Z)",
        design, re.S | re.M)
    if not m:
        raise SystemExit(f"mclock_lint: DESIGN.md section {heading!r} "
                         f"not found")
    return m.group(1)


def rule_r4(root, findings):
    def err(path, msg):
        findings.append(Finding("R4-taxonomy", path, 0, msg))

    def read(p):
        return (root / p).read_text(encoding="utf-8")

    def check_bijection(what, path, enumerators, table):
        for e in enumerators:
            if e not in table:
                err(path, f"{what}: enumerator {e} has no name-table "
                          f"case")
        for e in table:
            if e not in enumerators:
                err(path, f"{what}: name-table case {e} is not an "
                          f"enumerator")
        names = list(table.values())
        for n in names:
            if names.count(n) > 1:
                err(path, f"{what}: duplicate name {n!r}")

    def check_documented(what, names, doc_section, doc_names):
        for n in sorted(set(names)):
            if n not in doc_names:
                err("DESIGN.md", f"{what}: {n!r} missing from "
                                 f"section {doc_section}")

    design = read("DESIGN.md")
    doc6a = backticked(design_section(design, "6a."))

    vm_enum = parse_enum(read("src/stats/vmstat.hh"), "VmItem",
                         "src/stats/vmstat.hh")
    vm_table = parse_name_table(read("src/stats/vmstat.cc"), "VmItem")
    check_bijection("vmstat", "src/stats/vmstat.cc", vm_enum, vm_table)
    check_documented("vmstat", vm_table.values(), "6a", doc6a)

    tp_enum = parse_enum(read("src/stats/tracepoint.hh"),
                         "TraceEventType", "src/stats/tracepoint.hh")
    tp_table = parse_name_table(read("src/stats/tracepoint.cc"),
                                "TraceEventType")
    check_bijection("tracepoint", "src/stats/tracepoint.cc", tp_enum,
                    tp_table)
    check_documented("tracepoint", tp_table.values(), "6a", doc6a)

    vc_enum = parse_enum(read("src/debug/vm_checker.hh"),
                         "ViolationCode", "src/debug/vm_checker.hh")
    vc_table = parse_name_table(read("src/debug/vm_checker.cc"),
                                "ViolationCode")
    check_bijection("violation", "src/debug/vm_checker.cc", vc_enum,
                    vc_table)
    check_documented("violation", vc_table.values(), "6c",
                     backticked(design_section(design, "6c.")))

    test_src = read("tests/debug_vm_test.cc")
    for code in vc_enum:
        if not re.search(r"ViolationCode::" + code + r"\b", test_src):
            err("tests/debug_vm_test.cc",
                f"violation: {code} has no injection test")

    # Stale-doc check: 6a must not advertise unknown taxonomy names.
    known = set(vm_table.values()) | set(tp_table.values())
    taxonomy_prefixes = ("pgscan_", "pgpromote_", "pgdemote",
                         "pgmigrate_", "pgshard_", "shard_", "memcg_",
                         "pgtenant_", "pgsteal", "pgactivate",
                         "pgdeactivate", "pgrotated", "pgfault_",
                         "pghint_", "pswp", "pgwriteback", "pgexchange",
                         "kswapd_wake", "kpromoted_wake", "watermark_",
                         "migration_", "promote_throttle",
                         "list_rotation", "numa_", "inline_overhead",
                         "background_work")
    for name in sorted(doc6a):
        if name.startswith(taxonomy_prefixes) and name not in known:
            err("DESIGN.md", f"6a: {name!r} is not a known vmstat item "
                             f"or tracepoint")


# --- file-list derivation ----------------------------------------------


def files_from_compile_commands(root, db_path):
    """TUs under src/ from the compilation database, plus all headers
    under src/ (headers never appear in the database)."""
    files = set()
    if db_path.exists():
        for entry in json.loads(db_path.read_text(encoding="utf-8")):
            f = pathlib.Path(entry["file"])
            if not f.is_absolute():
                f = pathlib.Path(entry["directory"]) / f
            try:
                rel = f.resolve().relative_to(root.resolve())
            except ValueError:
                continue
            if rel.parts[:1] == ("src",):
                files.add(rel)
    else:
        print(f"mclock_lint: note: {db_path} not found; falling back "
              f"to a source-tree glob", file=sys.stderr)
        files.update(p.relative_to(root)
                     for p in (root / "src").rglob("*.cc"))
    files.update(p.relative_to(root) for p in (root / "src").rglob("*.hh"))
    return sorted(files)


TEXT_RULES = {
    "R1": ("R1-unordered-iter", rule_r1),
    "R2": ("R2-wall-clock", rule_r2),
    "R3": ("R3-nodiscard", rule_r3),
    "R5": ("R5-thread-spawn", rule_r5),
    "R6": ("R6-isa-dispatch", rule_r6),
    "R7": ("R7-clock-write", rule_r7),
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".", type=pathlib.Path,
                    help="repository root (default: cwd)")
    ap.add_argument("--rules", default="all",
                    help="comma list of R1,...,R7 (default: all)")
    ap.add_argument("--compile-commands", type=pathlib.Path, default=None,
                    help="compilation database "
                         "(default: <root>/build/compile_commands.json)")
    ap.add_argument("--files", nargs="*", default=None,
                    help="explicit files for the text rules "
                         "(fixture mode; paths relative to --root)")
    args = ap.parse_args()
    root = args.root

    if args.rules == "all":
        selected = {"R1", "R2", "R3", "R4", "R5", "R6", "R7"}
    else:
        selected = set()
        for token in args.rules.split(","):
            token = token.strip().split("-")[0].upper()
            if token not in ("R1", "R2", "R3", "R4", "R5", "R6", "R7"):
                ap.error(f"unknown rule {token!r}")
            selected.add(token)

    findings = []
    text_rules = [TEXT_RULES[r] for r in sorted(selected & set(TEXT_RULES))]
    if text_rules:
        if args.files is not None:
            rels = [pathlib.Path(f) for f in args.files]
        else:
            db = args.compile_commands or \
                root / "build" / "compile_commands.json"
            rels = files_from_compile_commands(root, db)
        for rel in rels:
            src = SourceFile(root / rel, rel.as_posix())
            for _, rule in text_rules:
                rule(src, findings)

    if "R4" in selected:
        rule_r4(root, findings)

    for f in findings:
        print(f, file=sys.stderr)
    if findings:
        print(f"mclock_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"mclock_lint: OK ({','.join(sorted(selected))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
