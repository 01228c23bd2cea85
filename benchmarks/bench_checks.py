"""Checks analyzer smoke: the two-pass project analysis stays fast.

The analyzer went project-wide in PR 8 — pass 1 builds the symbol table,
call graph, and per-function summaries for the whole ``src/repro`` tree;
pass 2 runs seven rule families over it, three of them interprocedural
(lock-order, fork-safety, hot-loop).  That is the kind of feature that
quietly turns a pre-commit hook into a coffee break, so this smoke bench
pins the wall-clock of a cold full-tree run under a soft budget and
records the measured numbers in ``BENCH_checks.json``.

It also re-asserts the CI gate inline: the live tree is clean under
every default rule.
"""

import time
from pathlib import Path

import repro
from repro.checks import DEFAULT_RULES, run_checks

from conftest import write_bench_json, write_result

#: Soft wall-clock budget for one cold full-tree run (pass 1 + pass 2).
#: Generous on CI runners; a 10x regression (accidentally quadratic
#: closure, per-call re-parsing) blows straight through it.
BUDGET_S = 10.0

#: Best-of repeats to shave scheduler noise off the recorded number.
REPEATS = 3


def test_checks_full_tree_speed():
    package_root = Path(repro.__file__).resolve().parent

    best_s = float("inf")
    report = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        report = run_checks([package_root], list(DEFAULT_RULES))
        best_s = min(best_s, time.perf_counter() - start)

    assert report is not None
    assert report.findings == [], "\n".join(f.format() for f in report.findings)
    assert report.files_checked > 50
    assert best_s < BUDGET_S, (
        f"full-tree checks run took {best_s:.2f}s (budget {BUDGET_S:.0f}s); "
        "the two-pass analyzer regressed"
    )

    files_per_s = report.files_checked / best_s
    write_result(
        "bench_checks",
        [
            f"files analyzed        : {report.files_checked}",
            f"rules                 : {len(report.rules)}",
            f"cold full-tree run    : {best_s * 1e3:.0f} ms (best of {REPEATS})",
            f"throughput            : {files_per_s:.0f} files/s",
            f"findings (live tree)  : {len(report.findings)}",
        ],
    )
    write_bench_json(
        "checks",
        {
            "files_checked": report.files_checked,
            "rules": len(report.rules),
            "full_tree_s": round(best_s, 4),
            "files_per_s": round(files_per_s, 1),
            "findings": len(report.findings),
            "budget_s": BUDGET_S,
        },
    )
