"""Rule ``hot-loop``: vectorization discipline in hot-path kernels.

PRs 2–5 bought 3–5x on DC/AC/transient by replacing per-candidate Python
loops with stacked ``np.linalg.solve`` calls over structure-grouped
batches, and the parity tests pin the *values* bit-identical — but
nothing pinned the *shape* of the code.  A per-item solve or a fresh
work-buffer allocation quietly reintroduced inside a Newton or time-step
loop would erase those wins while every test stays green.

Functions opt in with a marker on their ``def`` line::

    def solve_dc_many(  # checks: hot-path

Inside a marked function the rule flags, through the pass-1 call graph:

* a dense solve (``np.linalg.solve`` / ``lstsq``) inside a ``for`` /
  ``while`` whose arguments depend on a loop variable — the per-item
  shape.  A stacked solve of loop-invariant chunk arrays is fine;
* a call to a project function that *transitively* reaches a dense
  solve, passing loop-variable-dependent arguments — the same regression
  hidden one or more calls deep;
* a fresh numpy work-buffer allocation (``np.zeros`` / ``np.empty`` /
  ...) inside a loop that iterates a solve — Newton and time-step inner
  loops must preallocate and reuse.  Gather ops (``np.stack``, fancy
  indexing) are exempt: chunked stacking is how the batch kernels are
  *supposed* to stage work.

``except`` handler bodies are exempt end to end: the singular-matrix
fallback in ``repro.spice.linsolve.solve_stacked`` deliberately drops to
a per-item solve, and that is the correct shape for a rarely-taken
recovery path.

The pluggable linear-solve layer is *sanctioned*: hot-path loops call
:func:`repro.spice.linsolve.solve_stacked` once per structure group or
frequency chunk by design (the stack lives inside the call), so the
transitive-solve finding skips call sites that target it.  Its loops
still count as "solving" for the work-array allocation check — the
engines must keep preallocating around it.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from .core import Finding, ProjectContext, Rule
from .project import (
    NDARRAY_ALLOCATORS,
    SOLVE_FUNCTIONS,
    FunctionSummary,
    ModuleInfo,
    ProjectGraph,
)

__all__ = ["SANCTIONED_SOLVERS", "HotLoopRule"]

#: Project functions that *are* the stacked-solve layer: a hot-path loop
#: handing them loop-dependent chunk arrays is the intended shape (one
#: stacked/structure-grouped solve per call), not a per-item regression.
SANCTIONED_SOLVERS = frozenset(
    {
        "repro.spice.linsolve.solve_stacked",
    }
)


@dataclass
class _Loop:
    node: ast.AST
    targets: frozenset[str]
    solving: bool


class HotLoopRule(Rule):
    id = "hot-loop"
    summary = (
        "functions marked `# checks: hot-path` may not re-grow per-item "
        "numpy solves or per-iteration work-array allocations inside "
        "Python loops"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project.graph
        for summary in graph.functions.values():
            if not summary.hot_path:
                continue
            module = graph.module_for(summary)
            yield from self._check_function(graph, module, summary)

    # ------------------------------------------------------------------
    def _check_function(
        self, graph: ProjectGraph, module: ModuleInfo, summary: FunctionSummary
    ) -> Iterator[Finding]:
        yield from self._scan(graph, module, summary, summary.node, [])

    def _scan(
        self,
        graph: ProjectGraph,
        module: ModuleInfo,
        summary: FunctionSummary,
        node: ast.AST,
        loops: list[_Loop],
    ) -> Iterator[Finding]:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            and node is not summary.node
        ):
            return  # nested defs are their own (unmarked) scopes
        if isinstance(node, ast.ExceptHandler):
            # Fallback/recovery paths are allowed to go per-item.
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from self._scan(graph, module, summary, node.iter, loops)
            inner = loops + [
                _Loop(node, _target_names(node.target), self._loop_solves(graph, summary, node))
            ]
            for stmt in node.body + node.orelse:
                yield from self._scan(graph, module, summary, stmt, inner)
            return
        if isinstance(node, ast.While):
            inner = loops + [
                _Loop(node, frozenset(), self._loop_solves(graph, summary, node))
            ]
            yield from self._scan(graph, module, summary, node.test, inner)
            for stmt in node.body + node.orelse:
                yield from self._scan(graph, module, summary, stmt, inner)
            return
        if isinstance(node, ast.Call) and loops:
            yield from self._check_call(graph, module, summary, node, loops)
        for child in ast.iter_child_nodes(node):
            yield from self._scan(graph, module, summary, child, loops)

    # ------------------------------------------------------------------
    def _check_call(
        self,
        graph: ProjectGraph,
        module: ModuleInfo,
        summary: FunctionSummary,
        call: ast.Call,
        loops: list[_Loop],
    ) -> Iterator[Finding]:
        loop_targets: set[str] = set()
        for loop in loops:
            loop_targets.update(loop.targets)
        name = graph.external_name(module, call.func)
        if name in SOLVE_FUNCTIONS and _args_depend_on(call, loop_targets):
            yield self._finding(
                summary,
                call,
                f"per-item `{name.split('.', 1)[1]}` inside a Python loop in "
                f"hot-path `{summary.name}`; batch the systems and make one "
                "stacked solve (the PR 2-5 vectorization these kernels exist for)",
            )
            return
        site = summary.calls_by_node.get(id(call))
        if (
            site is not None
            and site.target is not None
            and site.target != summary.qualname
            and site.target not in SANCTIONED_SOLVERS
            and _args_depend_on(call, loop_targets)
        ):
            callee = graph.functions.get(site.target)
            if callee is not None and callee.t_solves is not None:
                via = " -> ".join(
                    short for short in (_short(site.target), *map(_short, callee.t_solves))
                )
                yield self._finding(
                    summary,
                    call,
                    f"loop in hot-path `{summary.name}` calls `{_short(site.target)}` "
                    f"per item, which reaches a dense solve ({via}); hoist the loop "
                    "into a stacked batch solve",
                )
                return
        if name is not None and loops and any(loop.solving for loop in loops):
            base, _, leaf = name.rpartition(".")
            if base == "numpy" and leaf in NDARRAY_ALLOCATORS:
                yield self._finding(
                    summary,
                    call,
                    f"`np.{leaf}` allocates a fresh work array every iteration of a "
                    f"solve loop in hot-path `{summary.name}`; preallocate the buffer "
                    "outside the loop and reuse it (zero-filled reuse is bit-identical)",
                )

    def _loop_solves(
        self, graph: ProjectGraph, summary: FunctionSummary, loop: ast.AST
    ) -> bool:
        """Does this loop body (transitively) perform a dense solve?"""
        module = graph.module_for(summary)
        for node in ast.walk(loop):
            if not isinstance(node, ast.Call):
                continue
            name = graph.external_name(module, node.func)
            if name in SOLVE_FUNCTIONS:
                return True
            site = summary.calls_by_node.get(id(node))
            if site is not None and site.target is not None:
                callee = graph.functions.get(site.target)
                if callee is not None and callee.t_solves is not None:
                    return True
        return False

    def _finding(self, summary: FunctionSummary, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=summary.ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _target_names(target: ast.expr) -> frozenset[str]:
    names = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return frozenset(names)


def _args_depend_on(call: ast.Call, loop_targets: set[str]) -> bool:
    """Does any argument reference a loop variable (directly or as index)?"""
    if not loop_targets:
        return False
    for arg in [*call.args, *[kw.value for kw in call.keywords]]:
        for node in ast.walk(arg):
            if isinstance(node, ast.Name) and node.id in loop_targets:
                return True
    return False


def _short(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qualname
