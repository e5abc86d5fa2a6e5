#!/usr/bin/env python3
"""Fault-site coverage lint for the C++ sources (CI-enforced).

The fault-tolerance story rests on labelled fault sites: every
`MSQ_PROBE("site")` / `MSQ_PROBE_COUNT("site", counter)` in src/ marks a
pseudo-code window where a thread can be delayed, stalled, or crash-stopped
by a FaultPlan (src/fault/fault_plan.hpp).  A site nothing injects into is
dead instrumentation -- it LOOKS like a proven window but no experiment
ever parks a victim there, and a regression that makes it unreachable (or
renames it out from under a test's plan) goes unnoticed.

One rule:

1. site-covered: every probe site string extracted from src/ must appear,
   quoted verbatim, in at least one file under tests/ or bench/ -- i.e.
   some crash sweep, halt/stall/delay plan, or latency experiment targets
   it.  A site that is deliberately exempt must carry a
   `// fault-cover: <why>` waiver on the probe line or one of the two
   lines above (e.g. benchmark-driver bookkeeping that is not an algorithm
   window).

The converse direction is checked too, as a warning-grade rule:

2. no-phantom-targets: a quoted probe-site-shaped string passed to a
   FaultPlan rule (halt_at/stall_at/delay_at/hits) in tests/ or bench/
   that matches NO site in src/ is a plan that can never fire -- almost
   always a renamed site.  Reported as a violation so renames fail CI
   instead of silently neutering an experiment.

Usage:
    tools/fault_sites_lint.py [--self-test] [ROOT]   (default ROOT: repo root)

Exits non-zero iff violations (or self-test failures) are found.
"""

import os
import re
import sys

PROBE_RE = re.compile(r'MSQ_PROBE(?:_COUNT)?\(\s*"([^"]+)"')
WAIVER_RE = re.compile(r"//\s*fault-cover:\s*\S")
# FaultPlan rule calls and hit queries in tests/bench that name a site.
PLAN_TARGET_RE = re.compile(
    r'\b(?:halt_at|stall_at|delay_at|hits)\(\s*"([^"]+)"')

SRC_EXTS = (".hpp", ".cpp", ".h", ".cc")


class Violation:
    def __init__(self, path, line_no, rule, message):
        self.path = path
        self.line_no = line_no
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line_no}: [{self.rule}] {self.message}"


class Site:
    def __init__(self, name, path, line_no, waived):
        self.name = name
        self.path = path
        self.line_no = line_no
        self.waived = waived


def extract_sites(path, lines):
    """All probe sites declared in one source file, with waiver state."""
    sites = []
    for i, line in enumerate(lines):
        for m in PROBE_RE.finditer(line):
            window = lines[max(0, i - 2):i + 1]
            waived = any(WAIVER_RE.search(w) for w in window)
            sites.append(Site(m.group(1), path, i + 1, waived))
    return sites


def extract_plan_targets(path, lines):
    """(site, path, line_no) for every FaultPlan rule/query in a test file."""
    targets = []
    for i, line in enumerate(lines):
        for m in PLAN_TARGET_RE.finditer(line):
            targets.append((m.group(1), path, i + 1))
    return targets


def covered_sites(corpus):
    """Site strings quoted anywhere in the tests/bench corpus.

    `corpus` maps path -> file text.  Coverage is the exact quoted string:
    "ms.D12" in a plan does NOT cover "ms.D1" or "hp.D12".
    """
    covered = set()
    for text in corpus.values():
        for m in re.finditer(r'"([^"\n]+)"', text):
            covered.add(m.group(1))
    return covered


def check(sites, corpus):
    """Run both rules over extracted sites and the tests/bench corpus."""
    out = []
    covered = covered_sites(corpus)
    declared = {s.name for s in sites}
    seen = set()
    for s in sites:
        if s.name in seen:
            continue  # one verdict per site, at its first declaration
        seen.add(s.name)
        if s.waived or s.name in covered:
            continue
        out.append(Violation(
            s.path, s.line_no, "site-covered",
            f'fault site "{s.name}" is targeted by nothing under tests/ or '
            f"bench/ -- add a FaultPlan experiment that names it, or waive "
            f"with `// fault-cover: <why>` at the probe"))
    for path, text in sorted(corpus.items()):
        for name, tpath, line_no in extract_plan_targets(
                path, text.splitlines()):
            if "." not in name:
                continue  # not site-shaped (e.g. a file path or message)
            if name not in declared:
                out.append(Violation(
                    tpath, line_no, "no-phantom-targets",
                    f'plan targets "{name}" but no MSQ_PROBE in src/ '
                    f"declares it -- renamed or deleted site?"))
    return out


# ---------------------------------------------------------------------------
# Filesystem driver
# ---------------------------------------------------------------------------

def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def iter_files(root, subdir):
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, subdir)):
        for name in sorted(filenames):
            if name.endswith(SRC_EXTS):
                yield os.path.join(dirpath, name)


def lint_tree(root):
    sites = []
    for path in iter_files(root, "src"):
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        sites.extend(extract_sites(os.path.relpath(path, root), lines))
    corpus = {}
    for subdir in ("tests", "bench"):
        for path in iter_files(root, subdir):
            with open(path, encoding="utf-8") as f:
                corpus[os.path.relpath(path, root)] = f.read()
    return sites, check(sites, corpus)


# ---------------------------------------------------------------------------
# Self-test fixtures
# ---------------------------------------------------------------------------

GOOD_SRC = """\
void enqueue() {
  MSQ_PROBE("q.link");
  MSQ_PROBE_COUNT("q.swing", kCasAttempt);
  // fault-cover: driver-loop bookkeeping, not an algorithm window
  MSQ_PROBE("bench.retry");
}
"""

BAD_SRC = """\
void dequeue() {
  MSQ_PROBE("q.orphan");
}
"""

GOOD_CORPUS = """\
TEST(F, T) {
  plan.halt_at("q.link");
  EXPECT_GT(plan.hits("q.swing"), 0u);
}
"""

PHANTOM_CORPUS = """\
TEST(F, T) {
  plan.stall_at("q.renamed_away", 1ms);
}
"""


def self_test():
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    corpus = {"tests/good_test.cpp": GOOD_CORPUS}
    good_sites = extract_sites("src/good.hpp", GOOD_SRC.splitlines())
    good = check(good_sites, corpus)
    expect(not good, f"clean fixture flagged: {[str(v) for v in good]}")

    bad = check(
        good_sites + extract_sites("src/bad.hpp", BAD_SRC.splitlines()),
        corpus)
    expect(len(bad) == 1 and bad[0].rule == "site-covered",
           f"uncovered site not flagged exactly once: "
           f"{[str(v) for v in bad]}")

    phantom = check(
        good_sites,
        {"tests/good_test.cpp": GOOD_CORPUS,
         "tests/phantom_test.cpp": PHANTOM_CORPUS})
    expect(len(phantom) == 1 and phantom[0].rule == "no-phantom-targets",
           f"phantom plan target not flagged exactly once: "
           f"{[str(v) for v in phantom]}")

    # Waivers must not leak downward past two lines.
    far = "// fault-cover: too far away\n\n\n\nMSQ_PROBE(\"q.far\");\n"
    far_v = check(
        good_sites + extract_sites("src/far.hpp", far.splitlines()), corpus)
    expect(len(far_v) == 1 and far_v[0].rule == "site-covered",
           f"waiver beyond the 2-line window wrongly honoured: "
           f"{[str(v) for v in far_v]}")

    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}")
        return 1
    print("self-test passed: uncovered-site, phantom-target, and "
          "waiver-window fixtures all behave")
    return 0


def main(argv):
    if "--self-test" in argv[1:]:
        return self_test()
    root = argv[1] if len(argv) > 1 else repo_root()
    sites, violations = lint_tree(root)
    for v in violations:
        print(v)
    unique = {s.name for s in sites}
    waived = {s.name for s in sites if s.waived}
    print(f"fault_sites_lint: {len(unique)} sites, {len(waived)} waived, "
          f"{len(violations)} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
