"""Command line front end: ``python -m repro.checks [paths...]``.

Exit status: 0 when no error-severity finding is reported, 1
otherwise (``--strict`` promotes warnings to failures too), 2 on
usage errors.  ``--format json`` prints the machine-readable report to
stdout; ``--output FILE`` additionally writes the JSON report to a file
regardless of the stdout format (CI uploads it as an artifact).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from .core import Report, Rule, run_checks
from .registry import DEFAULT_RULES

__all__ = ["main", "build_parser", "run"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checks",
        description=(
            "Repo-specific two-pass static analyzer: lock discipline and "
            "lock ordering on thread-shared classes, fork-safety of "
            "process-shared objects, hot-loop vectorization discipline, "
            "wire-format/cache-key drift, RNG determinism, JSON "
            "non-finite safety."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to check (default: the repro package "
             "this checker is installed in)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="stdout report format (default text)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, metavar="FILE",
        help="also write the JSON report to FILE (CI artifact)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail on warning-severity findings too (default: only "
             "error severity fails)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list rule ids and exit",
    )
    return parser


def _default_paths() -> list[Path]:
    """The installed ``repro`` package (works from any checkout layout)."""
    return [Path(__file__).resolve().parents[1]]


def run(
    paths: Sequence[Path],
    fmt: str = "text",
    output: Path | None = None,
    rules: Sequence[Rule] | None = None,
    strict: bool = False,
) -> int:
    """Run the checker; returns the process exit status."""
    active_rules = list(DEFAULT_RULES) if rules is None else list(rules)
    resolved = [Path(p) for p in paths] if paths else _default_paths()
    for path in resolved:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2

    report = run_checks(resolved, active_rules, display_root=Path.cwd())
    if output is not None:
        output.write_text(
            json.dumps(report.as_dict(), indent=2, sort_keys=True, allow_nan=False)
            + "\n",
            encoding="utf-8",
        )
    if fmt == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True, allow_nan=False))
    else:
        _print_text(report)
    failing = report.findings if strict else report.errors
    return 0 if not failing else 1


def _print_text(report: Report) -> None:
    for finding in report.findings:
        print(finding.format())
    status = "clean" if report.ok else (
        f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)"
    )
    print(
        f"repro.checks: {status} across {report.files_checked} file(s), "
        f"{len(report.rules)} rule(s)",
        file=sys.stderr,
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in DEFAULT_RULES:
            print(f"{rule.id}: {rule.summary}")
        return 0
    return run(
        args.paths,
        fmt=args.format,
        output=args.output,
        strict=args.strict,
    )
