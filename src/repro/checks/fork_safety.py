"""Rule ``fork-safety``: objects destined for a worker pool stay portable.

A shard-worker factory carries whatever it holds across the spawn
boundary (pickled; under ``fork`` it would be inherited and then
diverge), and the model bundle and the gm/Id LUTs are what a factory
may hold.  The classic failure is an innocuous-looking
attribute smuggled in three modules away: a ``threading.Lock`` inside a
helper the bundle holds, a bound method cached on ``self``, an open
file, a generator — all either unpicklable or silently wrong after
``fork``.  Cross-process cache bugs are born exactly here.

Classes opt in with a marker on their ``class`` line::

    class SizingModel:  # checks: process-shared

and the rule *transitively* verifies — descending through annotated and
constructor-inferred attribute types via the pass-1 symbol table — that
no reachable attribute holds a lock, thread, socket, open file, queue,
generator, lambda, or bound method.  Parent *serving* state is forbidden
too: an HTTP/TCP server (its listener socket), an sqlite connection, or
any ``multiprocessing`` primitive — the things a shard-pool worker
entrypoint must never inherit from the serving parent.  Project classes
that wrap these (``SizingServer``, ``MicroBatcher``) are caught by the
same transitive descent without being named here.

Severity ``warning``, second check: module-level mutable state mutated
by any function reachable (through the call graph) from
``SizingEngine.size_batch``.  After ``fork`` each worker inherits a
private copy of that state; mutations diverge silently across the pool,
which is how one worker's cache disagrees with another's.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .core import Finding, ProjectContext, Rule
from .project import AttrType, ClassInfo, ProjectGraph

__all__ = ["ForkSafetyRule"]

#: Attribute types that must not cross a process boundary.
FORBIDDEN_TYPES = {
    "threading.Lock": "a threading.Lock",
    "threading.RLock": "a threading.RLock",
    "threading.Condition": "a threading.Condition",
    "threading.Event": "a threading.Event",
    "threading.Semaphore": "a threading.Semaphore",
    "threading.BoundedSemaphore": "a threading.BoundedSemaphore",
    "threading.Barrier": "a threading.Barrier",
    "threading.Thread": "a live thread",
    "threading.local": "thread-local storage",
    "socket.socket": "a socket",
    "queue.Queue": "a queue.Queue (holds internal locks)",
    "queue.LifoQueue": "a queue.LifoQueue (holds internal locks)",
    "queue.PriorityQueue": "a queue.PriorityQueue (holds internal locks)",
    "queue.SimpleQueue": "a queue.SimpleQueue",
    "open": "an open file handle",
    "io.open": "an open file handle",
    "io.FileIO": "an open file handle",
    "tempfile.NamedTemporaryFile": "an open temporary file",
    # Parent serving state: a worker entrypoint must never inherit the
    # HTTP listener socket or the micro-batcher's queue.  The shard pool
    # pins spawn-start at runtime (tests/test_shard.py); this rule pins
    # it statically — nothing marked process-shared may even *hold* one.
    "http.server.HTTPServer": "a listening HTTP server (socket)",
    "http.server.ThreadingHTTPServer": "a listening HTTP server (socket)",
    "socketserver.TCPServer": "a listening TCP server (socket)",
    "socketserver.ThreadingTCPServer": "a listening TCP server (socket)",
    "socketserver.UDPServer": "a bound UDP server (socket)",
    # sqlite connections are documented as non-portable across processes;
    # a process-shared object that needs one opens it per operation.
    "sqlite3.connect": "an sqlite3 connection",
    "sqlite3.Connection": "an sqlite3 connection",
    # multiprocessing primitives wrap OS pipes and locks whose duplication
    # semantics under spawn are exactly the bug class this rule exists for.
    "multiprocessing.Queue": "a multiprocessing.Queue (holds pipes and locks)",
    "multiprocessing.JoinableQueue": "a multiprocessing.JoinableQueue",
    "multiprocessing.SimpleQueue": "a multiprocessing.SimpleQueue",
    "multiprocessing.Pipe": "a multiprocessing pipe connection",
    "multiprocessing.Lock": "a multiprocessing.Lock",
    "multiprocessing.RLock": "a multiprocessing.RLock",
    "multiprocessing.Event": "a multiprocessing.Event",
    "multiprocessing.Process": "a process handle",
    "multiprocessing.connection.Connection": "a multiprocessing pipe connection",
}

_KIND_DESCRIPTIONS = {
    "lambda": "a lambda (unpicklable)",
    "generator": "a generator (unpicklable, state lost on fork)",
    "bound-method": "a bound method (pins the whole instance into the pickle)",
}


class ForkSafetyRule(Rule):
    id = "fork-safety"
    summary = (
        "classes marked `# checks: process-shared` must hold no locks, "
        "threads, sockets, files, generators, or bound callables, even "
        "transitively; state mutated under `size_batch` must not be "
        "module-global"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project.graph
        for info in graph.classes.values():
            if info.process_shared:
                yield from self._check_class(graph, info, (info.name,), set())
        yield from self._check_module_state(graph)

    # ------------------------------------------------------------------
    def _check_class(
        self,
        graph: ProjectGraph,
        info: ClassInfo,
        path: tuple[str, ...],
        visited: set[str],
    ) -> Iterator[Finding]:
        if info.qualname in visited or len(path) > 8:
            return
        visited = visited | {info.qualname}
        seen_attrs: set[tuple[str, str]] = set()
        for attr_type in info.attr_types:
            key = (attr_type.attr, attr_type.type_name)
            if key in seen_attrs:
                continue
            seen_attrs.add(key)
            chain = " -> ".join([*path, attr_type.attr])
            if attr_type.kind in _KIND_DESCRIPTIONS:
                yield self._finding(
                    info, attr_type, chain, _KIND_DESCRIPTIONS[attr_type.kind]
                )
                continue
            if attr_type.type_name in FORBIDDEN_TYPES:
                yield self._finding(
                    info, attr_type, chain, FORBIDDEN_TYPES[attr_type.type_name]
                )
                continue
            nested = graph.classes.get(attr_type.type_name)
            if nested is not None and nested.qualname not in visited:
                yield from self._check_class(
                    graph, nested, (*path, f"{attr_type.attr}: {nested.name}"), visited
                )

    def _finding(
        self, info: ClassInfo, attr_type: AttrType, chain: str, what: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=info.ctx.display_path,
            line=getattr(attr_type.node, "lineno", info.node.lineno),
            col=getattr(attr_type.node, "col_offset", 0),
            message=(
                f"process-shared object holds {what} at `{chain}`; it cannot "
                "cross a process boundary (pickle fails or the state silently "
                "diverges after fork) — keep shared objects plain data"
            ),
        )

    # ------------------------------------------------------------------
    def _check_module_state(self, graph: ProjectGraph) -> Iterator[Finding]:
        entries = [
            qualname
            for qualname in graph.functions
            if qualname.endswith(".SizingEngine.size_batch")
        ]
        reachable: set[str] = set()
        for entry in entries:
            reachable |= graph.reachable_from(entry)
        emitted: set[tuple[str, int, str]] = set()
        for qualname in sorted(reachable):
            summary = graph.functions.get(qualname)
            if summary is None:
                continue
            for name, node in summary.global_mutations:
                key = (summary.ctx.display_path, getattr(node, "lineno", 1), name)
                if key in emitted:
                    continue
                emitted.add(key)
                yield Finding(
                    rule=self.id,
                    path=summary.ctx.display_path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    severity="warning",
                    message=(
                        f"`{summary.name}` mutates module-level `{name}` and is "
                        "reachable from `SizingEngine.size_batch`; fork-inherited "
                        "module state diverges per worker — move it onto the "
                        "engine or a shared cache"
                    ),
                )
