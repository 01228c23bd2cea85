"""The rule framework of :mod:`repro.checks`.

A *rule* is a small AST analysis with a stable id (``lock-discipline``,
``wire-format-drift``, ...) that yields :class:`Finding` objects.  The
runner parses every target file once, builds a :class:`ProjectContext`
shared by all rules (so cross-file rules such as wire-format drift can
resolve constants defined in other modules), runs the rules, and applies
inline suppressions.

Suppressions are source comments on the flagged line::

    self._entries.clear()  # checks: ignore[lock-discipline]

Several ids may be listed comma-separated.  A suppression that matched
no finding is itself reported (rule id ``unused-suppression``), so stale
ignores cannot silently outlive the code they excused — the same
convention ruff applies to ``# noqa``.

Classes may opt into the lock-discipline rule with a marker comment on
their ``class`` line::

    class ShardPool:  # checks: thread-shared[_lock]

naming the lock attribute every mutation must hold (default ``_lock``).

Two further markers drive the project-wide rules:

    class SizingModel:  # checks: process-shared

opts a class into the fork-safety rule (its attributes must stay free of
locks, threads, sockets, open files, generators, and bound callables so
the object can cross a process boundary), and

    def solve_dc_many(  # checks: hot-path

opts a function into the hot-loop discipline rule (no per-item numpy
solves or fresh work-array allocations inside its Python loops).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "Finding",
    "FileContext",
    "ProjectContext",
    "Rule",
    "FileRule",
    "Report",
    "run_checks",
    "iter_python_files",
    "attr_chain",
    "UNUSED_SUPPRESSION",
]

#: Rule id reported for an ignore directive that matched nothing.
UNUSED_SUPPRESSION = "unused-suppression"

_DIRECTIVE = re.compile(
    r"#\s*checks:\s*(?P<kind>ignore|thread-shared|process-shared|hot-path)"
    r"\s*(?:\[(?P<args>[^\]]*)\])?"
)

#: Valid finding severities, most severe first.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: [{self.severity}] {self.message}"

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }


@dataclass
class FileContext:
    """One parsed source file plus its inline directives."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    #: line number -> rule ids suppressed on that line
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    #: line number -> lock attribute named by a ``thread-shared`` marker
    thread_shared_markers: dict[int, str] = field(default_factory=dict)
    #: lines carrying a ``process-shared`` marker (fork-safety opt-in)
    process_shared_markers: set[int] = field(default_factory=set)
    #: lines carrying a ``hot-path`` marker (hot-loop discipline opt-in)
    hot_path_markers: set[int] = field(default_factory=set)

    @classmethod
    def parse(cls, path: Path, display_path: str | None = None) -> FileContext:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        ctx = cls(
            path=path,
            display_path=display_path if display_path is not None else str(path),
            source=source,
            tree=tree,
        )
        ctx._scan_directives()
        return ctx

    def _scan_directives(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                match = _DIRECTIVE.search(token.string)
                if match is None:
                    continue
                line = token.start[0]
                args = (match.group("args") or "").strip()
                kind = match.group("kind")
                if kind == "ignore":
                    ids = {part.strip() for part in args.split(",") if part.strip()}
                    if ids:
                        self.suppressions.setdefault(line, set()).update(ids)
                elif kind == "thread-shared":
                    self.thread_shared_markers[line] = args or "_lock"
                elif kind == "process-shared":
                    self.process_shared_markers.add(line)
                else:  # hot-path
                    self.hot_path_markers.add(line)
        except tokenize.TokenError:  # pragma: no cover - already parsed as AST
            pass


class ProjectContext:
    """Everything the rules can see: all parsed files plus shared indexes."""

    def __init__(self, files: Sequence[FileContext]):
        self.files = list(files)
        self._string_collections: dict[str, frozenset[str]] | None = None
        self._graph: Any = None

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Any:
        """The pass-1 :class:`~repro.checks.project.ProjectGraph`.

        Built lazily on first access and shared by every project-wide
        rule, so the symbol table / call graph is computed once per run.
        """
        if self._graph is None:
            from .project import ProjectGraph

            self._graph = ProjectGraph.build(self.files)
        return self._graph

    # ------------------------------------------------------------------
    def classes(self, name: str) -> list[tuple[FileContext, ast.ClassDef]]:
        """Every class definition with this name across the project."""
        found = []
        for ctx in self.files:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef) and node.name == name:
                    found.append((ctx, node))
        return found

    # ------------------------------------------------------------------
    @property
    def string_collections(self) -> dict[str, frozenset[str]]:
        """Module-level constants that enumerate strings, by simple name.

        Covers tuples/lists/sets of string literals, dict literals with
        string keys (the keys), aliases (``_TRAN_FIELDS =
        TRAN_METRIC_DIRECTIONS``) and conversions (``NAMES =
        tuple(DIRECTIONS)``), resolved across every analyzed module —
        this is how the wire-format rule sees through indirections like
        ``for name in TRAN_METRIC_NAMES``.
        """
        if self._string_collections is None:
            self._string_collections = self._build_string_collections()
        return self._string_collections

    def _build_string_collections(self) -> dict[str, frozenset[str]]:
        resolved: dict[str, frozenset[str]] = {}
        pending: list[tuple[str, str]] = []  # (name, referenced name)
        for ctx in self.files:
            for node in ctx.tree.body:
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                strings = _literal_strings(node.value)
                if strings is not None:
                    resolved[target.id] = frozenset(strings)
                    continue
                ref = _collection_reference(node.value)
                if ref is not None:
                    pending.append((target.id, ref))
        # Resolve aliases/conversions to fixpoint (chains are short).
        for _ in range(len(pending) + 1):
            progressed = False
            for name, ref in pending:
                if name not in resolved and ref in resolved:
                    resolved[name] = resolved[ref]
                    progressed = True
            if not progressed:
                break
        return resolved


def _literal_strings(node: ast.expr) -> set[str] | None:
    """The strings a literal collection enumerates, or ``None``."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        values = set()
        for element in node.elts:
            if not (isinstance(element, ast.Constant) and isinstance(element.value, str)):
                return None
            values.add(element.value)
        return values
    if isinstance(node, ast.Dict):
        keys = set()
        for key in node.keys:
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                return None
            keys.add(key.value)
        return keys
    return None


def _collection_reference(node: ast.expr) -> str | None:
    """The name another collection constant is derived from, or ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"tuple", "list", "set", "frozenset", "sorted"}
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Name)
        and not node.keywords
    ):
        return node.args[0].id
    return None


def attr_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; ``None`` for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


class Rule:
    """A project-scoped analysis.  Subclasses set ``id`` and ``summary``."""

    id: str = ""
    summary: str = ""

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError


class FileRule(Rule):
    """A rule that inspects one file at a time."""

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        for ctx in project.files:
            yield from self.check_file(ctx, project)

    def check_file(self, ctx: FileContext, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError


@dataclass
class Report:
    """Outcome of one checker run (post-suppression)."""

    findings: list[Finding]
    files_checked: int
    rules: list[Rule]

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def errors(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.severity == "warning"]

    def as_dict(self) -> dict[str, Any]:
        counts: dict[str, int] = {}
        severities: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
            severities[finding.severity] = severities.get(finding.severity, 0) + 1
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "rules": [{"id": rule.id, "summary": rule.summary} for rule in self.rules],
            "findings": [finding.as_dict() for finding in self.findings],
            "counts": dict(sorted(counts.items())),
            "severities": dict(sorted(severities.items())),
        }


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into the ``.py`` files to check."""
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if "__pycache__" not in candidate.parts:
                    yield candidate
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")


def run_checks(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    display_root: Path | None = None,
) -> Report:
    """Parse ``paths``, run every rule, apply suppressions.

    Returns the findings that survived suppression, plus one
    ``unused-suppression`` finding per ignore directive that matched
    nothing.  Files that fail to parse yield a ``syntax-error`` finding
    instead of aborting the run.
    """
    contexts: list[FileContext] = []
    findings: list[Finding] = []
    files_checked = 0
    for path in iter_python_files(paths):
        files_checked += 1
        display = str(path)
        if display_root is not None:
            try:
                display = str(path.relative_to(display_root))
            except ValueError:
                pass
        try:
            contexts.append(FileContext.parse(path, display_path=display))
        except SyntaxError as error:
            findings.append(
                Finding(
                    rule="syntax-error",
                    path=display,
                    line=error.lineno or 1,
                    col=error.offset or 0,
                    message=f"file does not parse: {error.msg}",
                )
            )

    project = ProjectContext(contexts)
    raw: list[Finding] = []
    for rule in rules:
        raw.extend(rule.check(project))

    by_path = {ctx.display_path: ctx for ctx in contexts}
    used: set[tuple[str, int, str]] = set()
    for finding in raw:
        ctx = by_path.get(finding.path)
        suppressed = ctx is not None and finding.rule in ctx.suppressions.get(
            finding.line, set()
        )
        if suppressed:
            used.add((finding.path, finding.line, finding.rule))
        else:
            findings.append(finding)

    for ctx in contexts:
        for line, rule_ids in sorted(ctx.suppressions.items()):
            for rule_id in sorted(rule_ids):
                if (ctx.display_path, line, rule_id) not in used:
                    findings.append(
                        Finding(
                            rule=UNUSED_SUPPRESSION,
                            path=ctx.display_path,
                            line=line,
                            col=0,
                            message=(
                                f"suppression `# checks: ignore[{rule_id}]` matched "
                                "no finding; remove it so stale ignores cannot hide "
                                "future regressions"
                            ),
                        )
                    )

    findings.sort(key=lambda finding: finding.sort_key)
    return Report(findings=findings, files_checked=files_checked, rules=list(rules))
