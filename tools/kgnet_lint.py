#!/usr/bin/env python3
"""kgnet_lint — project-invariant linter for the kgnet tree.

The third layer of the static-analysis gate (docs/STATIC_ANALYSIS.md):
rules that encode *this repo's* invariants, which no generic tool
checks. Registered as a ctest (label: lint) and a CI step; exits 0 when
the tree is clean, 1 with `path:line: KLxxx` diagnostics otherwise.

Rules
-----
KL001 unordered-iteration
    No iteration (range-for, .begin()/.cbegin()) over std::unordered_map
    / std::unordered_set variables in src/sparql/, src/rdf/, src/core/
    and src/gml/. Hash iteration order is libstdc++-internal: feeding
    it into ordered output or order-sensitive accumulation silently
    breaks the bitwise-determinism contract (docs/ARCHITECTURE.md
    "Threading model").
    Audited order-independent sites go in tools/kgnet_lint_allowlist.txt.

KL002 unseeded-random
    No rand()/srand()/std::random_device anywhere. All randomness flows
    through tensor::Rng with an explicit seed so every run, test and
    bench is reproducible. Audited sites (if one ever becomes
    necessary) go in the allowlist.

KL003 layering
    Include-level layering must match the link-time layer graph
    (common <- tensor <- rdf <- sparql/gml/workload <- core): a file in
    src/<layer>/ may include only headers of layers its library links.
    Mirrors the CMake target graph so an illegal include fails in
    seconds here instead of minutes later at link time — and so
    header-only coupling (which the linker never sees) cannot sneak in.

KL004 naked-new-delete
    No `new` / `delete` expressions in src/ outside audited arena code
    (allowlist). Ownership flows through std::unique_ptr /
    std::make_unique and containers; the rule keeps leaks and double
    frees structurally impossible rather than reviewed-for.

KL005 thread-local-justification
    Every `thread_local` must carry a `kgnet-lint: thread_local-ok`
    comment (same line or the preceding comment block) explaining why
    per-thread state is correct. Motivated by the PR 5 MemoryMeter bug
    class: a thread_local meter silently scattered pool-worker
    allocations across meters nobody read.

KL006 raw-getenv
    No getenv call anywhere the linter scans except src/common/env.cc.
    Every setting from outside the process goes through common/env.h
    (ParseInt / EnvInt), so one grammar and one warning contract cover
    all of them and docs/SERVING.md "Settings" can list every knob.

KL007 udfs-text-search
    No substring search of text for `sql:UDFS` in src/ (`find`,
    `starts_with`, `strstr`, ... on a literal or a constant holding it).
    Whether a query calls a UDF is a property of its parse (an
    ExprOp::kCall): a text search also matches a literal or an IRI that
    only mentions the name, which once sent such plain reads to the
    serialized service path.

Suppressions
------------
- Inline: `// kgnet-lint: allow(KL00x) <reason>` on the flagged line or
  the line above.
- Inline (KL005 only): `// kgnet-lint: thread_local-ok <reason>`.
- Central: tools/kgnet_lint_allowlist.txt, lines of
  `KL00x <path> <token> # reason` where <token> is the flagged
  identifier (KL001/KL004) or `*`.

Usage
-----
  python3 tools/kgnet_lint.py                 # lint the tree
  python3 tools/kgnet_lint.py --list-rules
  python3 tools/kgnet_lint.py --as src/sparql/x.cc tests/lint_fixtures/f.cc
      # lint one file as if it lived at the given repo path (rule scopes
      # depend on location; the fixture suite uses this)
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST_PATH = os.path.join(REPO_ROOT, "tools", "kgnet_lint_allowlist.txt")

# Directories scanned by default (first-party C++ only; the build trees
# and tests/lint_fixtures — intentional violations — are excluded).
SCAN_DIRS = ("src", "bench", "tests", "examples")
CXX_EXTS = (".h", ".hpp", ".cc", ".cpp")
EXCLUDE_PARTS = (os.path.join("tests", "lint_fixtures"),)

# KL003: allowed include-prefix layers per src/ layer. Mirrors the CMake
# target graph in the root CMakeLists.txt (PUBLIC closure; tensor ->
# common and rdf -> tensor are PRIVATE there but header use is still
# legal inside .cc files, and the linter works at file level).
LAYER_DEPS = {
    "common": {"common"},
    "tensor": {"tensor", "common"},
    "rdf": {"rdf", "tensor", "common"},
    "sparql": {"sparql", "rdf", "tensor", "common"},
    "gml": {"gml", "rdf", "tensor", "common"},
    "workload": {"workload", "rdf", "tensor", "common"},
    "core": {"core", "sparql", "gml", "rdf", "tensor", "common"},
    "serving": {"serving", "core", "sparql", "gml", "rdf", "tensor", "common"},
}

# KL001: the layers whose output order is part of a determinism contract.
KL001_DIRS = ("src/sparql/", "src/rdf/", "src/core/", "src/gml/")

RULES = {
    "KL001": "unordered-iteration",
    "KL002": "unseeded-random",
    "KL003": "layering",
    "KL004": "naked-new-delete",
    "KL005": "thread-local-justification",
    "KL006": "raw-getenv",
    "KL007": "udfs-text-search",
}

# KL006: the one file allowed to read the environment.
KL006_ENV_READER = "src/common/env.cc"


class Finding:
    def __init__(self, path, line, rule, message, token="*"):
        self.path = path  # repo-relative, forward slashes
        self.line = line  # 1-based
        self.rule = rule
        self.message = message
        self.token = token  # identifier for allowlist matching

    def __str__(self):
        return (f"{self.path}:{self.line}: {self.rule} "
                f"({RULES[self.rule]}): {self.message}")


def strip_comments_and_strings(text, keep_strings=False):
    """Returns `text` with comments — and, unless `keep_strings`,
    string/char literal contents — replaced by spaces, preserving line
    structure (newlines kept). keep_strings=True exists for the include
    scan: `#include "rdf/x.h"` paths are string literals."""
    out = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW = range(6)
    state = NORMAL
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
            elif c == '"' and re.search(r'R$', "".join(out[-2:])):
                # R"delim( ... opener: out already holds the R.
                m = re.match(r'R"([^()\\ ]{0,16})\(', text[i - 1:])
                if m:
                    raw_delim = m.group(1)
                    state = RAW
                    skip = len(m.group(0)) - 1  # chars after the R
                    out.append(" " * skip)
                    i += skip
                else:
                    state = STRING
                    out.append('"')
                    i += 1
            elif c == '"':
                state = STRING
                out.append('"')
                i += 1
            elif c == "'":
                state = CHAR
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                out.append(c)
            elif c == "\\" and nxt == "\n":
                out.append(" \n")
                i += 1
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == STRING:
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
            elif c == '"':
                state = NORMAL
                out.append('"')
                i += 1
            else:
                out.append(c if (keep_strings or c == "\n") else " ")
                i += 1
        elif state == CHAR:
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
            elif c == "'":
                state = NORMAL
                out.append("'")
                i += 1
            else:
                out.append(c if keep_strings else " ")
                i += 1
        elif state == RAW:
            closer = ')' + raw_delim + '"'
            end = text.find(closer, i)
            if end == -1:
                end = n
            seg = text[i:end]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            out.append(" " * min(len(closer), n - end))
            i = end + len(closer)
            state = NORMAL
    return "".join(out)


def find_unordered_decls(stripped):
    """Returns {identifier} declared with an unordered container type."""
    names = set()
    for m in re.finditer(r"\bunordered_(?:map|set|multimap|multiset)\s*<",
                         stripped):
        # Match the template argument list by bracket depth.
        i = m.end() - 1
        depth = 0
        n = len(stripped)
        while i < n:
            if stripped[i] == "<":
                depth += 1
            elif stripped[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= n:
            continue
        tail = stripped[i + 1:i + 120]
        # The name may carry a thread-safety annotation before its end:
        #   std::unordered_map<K, V> models_ KGNET_GUARDED_BY(mu_);
        dm = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)\s*"
                      r"(?:KGNET_\w+\s*\([^()]*\)\s*)?[;,={(\[]", tail)
        if dm and dm.group(1) not in ("const", "static", "mutable"):
            names.add(dm.group(1))
    return names


def line_of(stripped, offset):
    return stripped.count("\n", 0, offset) + 1


def rule_kl001(vpath, orig_lines, stripped):
    if not vpath.startswith(KL001_DIRS):
        return []
    findings = []
    names = find_unordered_decls(stripped)
    if not names:
        return []
    alt = "|".join(re.escape(x) for x in sorted(names))
    # Range-for over a tracked container.
    for m in re.finditer(
            r"for\s*\([^;()]*?:\s*(" + alt + r")\s*\)", stripped):
        findings.append(Finding(
            vpath, line_of(stripped, m.start()), "KL001",
            f"iteration over unordered container '{m.group(1)}' "
            "(hash order is not deterministic output order)",
            m.group(1)))
    # Explicit iterator walks.
    for m in re.finditer(
            r"\b(" + alt + r")\s*\.\s*(?:c?r?begin)\s*\(", stripped):
        findings.append(Finding(
            vpath, line_of(stripped, m.start()), "KL001",
            f"iterator over unordered container '{m.group(1)}' "
            "(hash order is not deterministic output order)",
            m.group(1)))
    return findings


def rule_kl002(vpath, orig_lines, stripped):
    findings = []
    for pattern, what in (
            (r"\b(?:std\s*::\s*)?s?rand\s*\(", "rand()/srand()"),
            (r"\brandom_device\b", "std::random_device")):
        for m in re.finditer(pattern, stripped):
            findings.append(Finding(
                vpath, line_of(stripped, m.start()), "KL002",
                f"{what}: use tensor::Rng with an explicit seed "
                "(reproducibility contract)", "*"))
    return findings


def rule_kl003(vpath, orig_lines, stripped, include_text):
    parts = vpath.split("/")
    if len(parts) < 3 or parts[0] != "src" or parts[1] not in LAYER_DEPS:
        return []
    layer = parts[1]
    allowed = LAYER_DEPS[layer]
    findings = []
    for i, line in enumerate(include_text.split("\n"), start=1):
        m = re.match(r'\s*#\s*include\s*"([^"]+)"', line)
        if not m:
            continue
        target = m.group(1).split("/")[0]
        if "/" not in m.group(1):
            continue  # same-directory include, no layer prefix
        if target not in allowed:
            why = (f"layer '{layer}' must not include '{m.group(1)}'"
                   if target in LAYER_DEPS else
                   f"'{m.group(1)}' is outside the src layer graph")
            findings.append(Finding(
                vpath, i, "KL003",
                f"{why} (allowed: {', '.join(sorted(allowed))})",
                target))
    return findings


def rule_kl004(vpath, orig_lines, stripped):
    if not vpath.startswith("src/"):
        return []
    findings = []
    for m in re.finditer(r"\bnew\b", stripped):
        tail = stripped[m.end():m.end() + 40].lstrip()
        if not tail or not (tail[0].isalpha() or tail[0] in "_(:["):
            continue
        findings.append(Finding(
            vpath, line_of(stripped, m.start()), "KL004",
            "naked `new` (use std::make_unique / containers; audited "
            "arena code belongs in the allowlist)", "new"))
    for m in re.finditer(r"\bdelete\b", stripped):
        head = stripped[:m.start()].rstrip()
        if head.endswith("="):
            continue  # `= delete` declaration
        findings.append(Finding(
            vpath, line_of(stripped, m.start()), "KL004",
            "naked `delete` (ownership must be RAII-managed)", "delete"))
    return findings


def rule_kl005(vpath, orig_lines, stripped):
    findings = []
    for i, line in enumerate(stripped.split("\n"), start=1):
        if not re.search(r"\bthread_local\b", line):
            continue
        window = orig_lines[max(0, i - 8):i]
        if any("kgnet-lint: thread_local-ok" in w for w in window):
            continue
        findings.append(Finding(
            vpath, i, "KL005",
            "thread_local without a `kgnet-lint: thread_local-ok` "
            "justification (see the MemoryMeter bug class, PR 5)",
            "thread_local"))
    return findings


def rule_kl006(vpath, orig_lines, stripped):
    if vpath == KL006_ENV_READER:
        return []
    findings = []
    for m in re.finditer(r"\b(?:secure_)?getenv\s*\(", stripped):
        findings.append(Finding(
            vpath, line_of(stripped, m.start()), "KL006",
            "getenv outside src/common/env.cc (read settings through "
            "common::EnvInt so every knob shares one parser)", "*"))
    return findings


# KL007: calls that search text for a substring.
KL007_SEARCH = re.compile(
    r"\b(?:r?find|find_(?:first|last)_of|contains|starts_with|ends_with|"
    r"StartsWith|EndsWith|strstr|search|regex_search)\s*\(")
KL007_LITERAL = re.compile(r'"[^"\n]*sql:UDFS')
KL007_CONSTANT = re.compile(
    r'\b([A-Za-z_]\w*)\s*(?:\[\s*\])?\s*[={]\s*"[^"\n]*sql:UDFS')


def rule_kl007(vpath, orig_lines, stripped, include_text):
    """Calls are found in `stripped` (so a call written inside a string
    does not count) and their arguments read in `include_text`, which
    keeps string contents at the same offsets."""
    if not vpath.startswith("src/"):
        return []
    constants = {m.group(1) for m in KL007_CONSTANT.finditer(include_text)}
    findings = []
    for m in KL007_SEARCH.finditer(stripped):
        depth, end = 1, m.end()
        while end < len(stripped) and depth > 0:
            depth += {"(": 1, ")": -1}.get(stripped[end], 0)
            end += 1
        args = include_text[m.end():end]
        names = set(re.findall(r"[A-Za-z_]\w*", stripped[m.end():end]))
        if KL007_LITERAL.search(args) or names & constants:
            findings.append(Finding(
                vpath, line_of(stripped, m.start()), "KL007",
                "substring search for sql:UDFS (route on the parse: an "
                "ExprOp::kCall in the query)", "*"))
    return findings


RULE_FNS = {
    "KL001": rule_kl001,
    "KL002": rule_kl002,
    "KL004": rule_kl004,
    "KL005": rule_kl005,
    "KL006": rule_kl006,
}


def load_allowlist(path):
    """Returns {(rule, vpath, token)}; token '*' matches any."""
    entries = set()
    if not os.path.isfile(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 3 or fields[0] not in RULES:
                print(f"kgnet_lint: malformed allowlist line: {raw.rstrip()}",
                      file=sys.stderr)
                sys.exit(2)
            entries.add((fields[0], fields[1], fields[2]))
    return entries


def is_suppressed(finding, orig_lines, allowlist):
    if (finding.rule, finding.path, finding.token) in allowlist:
        return True
    if (finding.rule, finding.path, "*") in allowlist:
        return True
    marker = f"kgnet-lint: allow({finding.rule})"
    for idx in (finding.line - 1, finding.line - 2):
        if 0 <= idx < len(orig_lines) and marker in orig_lines[idx]:
            return True
    return False


def lint_file(vpath, real_path, allowlist):
    with open(real_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    orig_lines = text.split("\n")
    stripped = strip_comments_and_strings(text)
    include_text = strip_comments_and_strings(text, keep_strings=True)
    findings = []
    for fn in RULE_FNS.values():
        for finding in fn(vpath, orig_lines, stripped):
            if not is_suppressed(finding, orig_lines, allowlist):
                findings.append(finding)
    for fn in (rule_kl003, rule_kl007):
        for finding in fn(vpath, orig_lines, stripped, include_text):
            if not is_suppressed(finding, orig_lines, allowlist):
                findings.append(finding)
    return findings


def default_files():
    for d in SCAN_DIRS:
        root = os.path.join(REPO_ROOT, d)
        for dirpath, dirnames, filenames in os.walk(root):
            rel_dir = os.path.relpath(dirpath, REPO_ROOT)
            if any(part in rel_dir for part in EXCLUDE_PARTS):
                dirnames[:] = []
                continue
            for name in sorted(filenames):
                if name.endswith(CXX_EXTS):
                    rel = os.path.join(rel_dir, name).replace(os.sep, "/")
                    yield rel, os.path.join(dirpath, name)


def main():
    ap = argparse.ArgumentParser(
        description="kgnet project-invariant linter")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument(
        "--as", dest="virtual_path", metavar="VPATH",
        help="lint the single FILE argument as if it lived at VPATH "
             "(repo-relative); used by the fixture tests")
    ap.add_argument("files", nargs="*",
                    help="specific files to lint (default: whole tree)")
    ap.add_argument("--allowlist", default=ALLOWLIST_PATH)
    opts = ap.parse_args()

    if opts.list_rules:
        for rule, name in RULES.items():
            print(f"{rule}  {name}")
        return 0

    allowlist = load_allowlist(opts.allowlist)

    if opts.virtual_path:
        if len(opts.files) != 1:
            ap.error("--as requires exactly one FILE argument")
        targets = [(opts.virtual_path.replace(os.sep, "/"), opts.files[0])]
    elif opts.files:
        targets = [
            (os.path.relpath(os.path.abspath(f), REPO_ROOT).replace(
                os.sep, "/"), f)
            for f in opts.files
        ]
    else:
        targets = list(default_files())

    all_findings = []
    for vpath, real in targets:
        all_findings.extend(lint_file(vpath, real, allowlist))
    for finding in sorted(all_findings, key=lambda x: (x.path, x.line)):
        print(finding)
    if all_findings:
        print(f"kgnet_lint: {len(all_findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"kgnet_lint: OK ({len(targets)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
