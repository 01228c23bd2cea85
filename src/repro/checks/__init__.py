"""Repo-specific static analyzer (``python -m repro.checks``).

A two-pass, project-wide analyzer: pass 1 (:mod:`repro.checks.project`)
builds a symbol table and call graph over every analyzed file — import
resolution, class/method ownership, per-function summaries of acquired
locks, blocking operations, numpy solves, and inferred attribute types —
and pass 2 runs seven rules over those summaries, enforced in CI:

``lock-discipline``
    Thread-shared classes (``EngineStats``, ``ResultCache``,
    ``ServeStats``, ``MicroBatcher``) mutate ``self`` state only inside
    ``with self._lock:`` — the PR 6 retrofit, kept from regressing.
``lock-order``
    Nested lock acquisitions form one consistent global order — cycles
    are flagged interprocedurally through the call graph — and no
    blocking work (I/O, ``time.sleep``, ``size_batch``) runs while any
    lock is held.
``fork-safety``
    Classes marked ``# checks: process-shared`` hold no locks, threads,
    sockets, files, generators, or bound callables, transitively; no
    module-level mutable state is mutated under ``size_batch``.
``hot-loop``
    Functions marked ``# checks: hot-path`` contain no per-item numpy
    solves and no fresh work-array allocations inside solve loops — the
    PR 2-5 vectorization wins, made structural.
``wire-format-drift``
    Every ``SizingRequest``/``DesignSpec`` field is referenced in
    ``to_json``, ``from_json`` and ``ResultCache.key`` — the PR 4/5
    schema-threading hazard, made structural.
``rng-determinism``
    No legacy ``np.random`` module-level calls, no stdlib ``random``, no
    time-derived seeds — randomness flows through explicit Generators.
``json-safety``
    ``json.dumps`` always pins ``allow_nan=False`` — the PR 3 bare
    ``Infinity`` bug cannot silently corrupt output again.

Suppress a single finding inline with ``# checks: ignore[rule-id]``;
unused suppressions are themselves findings.  Findings carry severities
(only errors fail a run unless ``--strict``); every run checks and
reports the whole tree, because a change to one module can raise a
finding in another that calls it.
See the README's "Static analysis" section for the full catalog.
"""

from .core import (
    FileContext,
    FileRule,
    Finding,
    ProjectContext,
    Report,
    Rule,
    run_checks,
)
from .project import ProjectGraph
from .registry import DEFAULT_RULES, rule_by_id

__all__ = [
    "Finding",
    "FileContext",
    "FileRule",
    "ProjectContext",
    "ProjectGraph",
    "Report",
    "Rule",
    "run_checks",
    "DEFAULT_RULES",
    "rule_by_id",
]
