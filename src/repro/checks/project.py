"""Pass 1 of the project-wide analyzer: symbol table and call graph.

PR 7's rules were single-file pattern matchers.  The ROADMAP tentpoles
they guard — multiprocess sharding with zero-copy shared artifacts, and
stacked MNA solves inside the batched Newton hot paths — fail *across* module
boundaries: a lock acquired two calls away, an unpicklable attribute
smuggled in through a helper's constructor, a per-item solve hidden in
a callee.  This module builds what those rules need to see:

* a module table (dotted names derived from package structure),
* per-module import resolution (``import numpy as np``, from-imports,
  relative imports, ``__init__`` re-export chasing),
* class ownership (methods, lock attributes, inferred attribute types),
* a :class:`FunctionSummary` per function/method recording the facts
  pass 2 consumes — locks acquired, resolved calls, blocking operations,
  ndarray allocations, ``np.linalg.solve`` calls, module-global
  mutations — plus *transitive* closures of the lock/blocking/solve
  facts over the call graph, each carrying a representative call chain
  so findings can explain the path.

Everything here is best-effort static resolution: an unresolvable call
contributes nothing (rules err toward silence, never toward noise).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from .core import FileContext, attr_chain

__all__ = [
    "CallSite",
    "FunctionSummary",
    "ClassInfo",
    "ModuleInfo",
    "ProjectGraph",
    "AttrType",
    "BLOCKING_EXTERNALS",
    "BLOCKING_METHODS",
    "NDARRAY_ALLOCATORS",
    "SOLVE_FUNCTIONS",
]

#: Fully-qualified external callables that block the calling thread.
BLOCKING_EXTERNALS = {
    "time.sleep": "time.sleep",
    "socket.socket": "socket constructor",
    "socket.create_connection": "socket.create_connection",
    "subprocess.run": "subprocess.run",
    "subprocess.check_output": "subprocess.check_output",
    "urllib.request.urlopen": "urllib.request.urlopen",
}

#: Method names that block regardless of receiver type (socket/file I/O
#: plus the engine's own batch entry point, per the lock-order rule).
BLOCKING_METHODS = {
    "recv",
    "recv_into",
    "sendall",
    "accept",
    "makefile",
    "read_text",
    "write_text",
    "read_bytes",
    "write_bytes",
    "size_batch",
}

#: numpy constructors that allocate a fresh work array.  Gather ops
#: (``np.stack``, fancy indexing) are deliberately absent: chunked
#: stacking is the *point* of the batched kernels, while fresh
#: zeros/empty work buffers inside an iteration loop are preallocatable.
NDARRAY_ALLOCATORS = {
    "zeros",
    "empty",
    "ones",
    "full",
    "zeros_like",
    "empty_like",
    "ones_like",
    "full_like",
    "eye",
    "identity",
    "tile",
}

#: Fully-qualified dense linear-solve entry points.
SOLVE_FUNCTIONS = {
    "numpy.linalg.solve",
    "numpy.linalg.lstsq",
    "scipy.linalg.solve",
    "scipy.linalg.lu_solve",
}

_LOCK_CONSTRUCTORS = {
    "threading.Lock": False,
    "threading.RLock": True,
    "threading.Condition": False,
    "threading.Semaphore": False,
    "threading.BoundedSemaphore": False,
}

_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "discard",
    "remove",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "clear",
}

_MUTABLE_FACTORIES = {
    "dict",
    "list",
    "set",
    "collections.OrderedDict",
    "collections.defaultdict",
    "collections.Counter",
    "collections.deque",
}


@dataclass
class CallSite:
    """One call expression inside a function body."""

    chain: tuple[str, ...]
    node: ast.Call
    #: qualified name of the resolved project function/method, if any
    target: Optional[str] = None


@dataclass
class AttrType:
    """One inferred type for an instance attribute."""

    attr: str
    #: "class" | "lambda" | "generator" | "bound-method" | "annotation"
    kind: str
    #: resolved qualname (project class) or dotted external name
    type_name: str
    node: ast.AST


@dataclass
class FunctionSummary:
    """Lexical + transitive facts about one function or method."""

    qualname: str
    module: str
    class_name: Optional[str]
    name: str
    node: ast.AST
    ctx: FileContext
    hot_path: bool = False
    calls: list[CallSite] = field(default_factory=list)
    calls_by_node: dict[int, CallSite] = field(default_factory=dict)
    #: lock ids acquired directly via ``with`` in this body
    acquires: list[str] = field(default_factory=list)
    #: (description, node) for directly blocking operations
    blocking: list[tuple[str, ast.AST]] = field(default_factory=list)
    #: directly calls a dense linear solve
    solves: bool = False
    #: (global name, node) mutations of module-level mutable bindings
    global_mutations: list[tuple[str, ast.AST]] = field(default_factory=list)
    # Transitive closures over the call graph; values are representative
    # callee chains ("via" paths), empty tuple for direct facts.
    t_locks: dict[str, tuple[str, ...]] = field(default_factory=dict)
    t_blocking: dict[str, tuple[str, ...]] = field(default_factory=dict)
    t_solves: Optional[tuple[str, ...]] = None


@dataclass
class ClassInfo:
    """One class definition plus everything pass 2 asks about it."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    ctx: FileContext
    process_shared: bool = False
    base_names: list[str] = field(default_factory=list)
    methods: dict[str, FunctionSummary] = field(default_factory=dict)
    #: lock attribute -> reentrant?
    lock_attrs: dict[str, bool] = field(default_factory=dict)
    attr_types: list[AttrType] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """One analyzed module."""

    name: str
    ctx: FileContext
    is_package: bool = False
    #: local name -> fully-qualified target
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level lock name -> reentrant?
    module_locks: dict[str, bool] = field(default_factory=dict)
    #: module-level mutable bindings (dict/list/set literals or factories)
    mutable_globals: dict[str, ast.AST] = field(default_factory=dict)


def module_name_for(ctx: FileContext) -> tuple[str, bool]:
    """Dotted module name derived from package structure.

    Walks parent directories while they contain ``__init__.py`` so
    ``.../src/repro/spice/dc.py`` becomes ``repro.spice.dc``.  Files in
    a bare directory (test fixtures) use their stem.  Returns
    ``(name, is_package)``.
    """
    path = ctx.path.resolve()
    is_package = path.name == "__init__.py"
    parts: list[str] = [] if is_package else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:  # bare __init__.py outside any package dir
        parts = [path.parent.name]
    parts.reverse()
    return ".".join(parts), is_package


class ProjectGraph:
    """Symbol table + call graph over every parsed file."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionSummary] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.classes_by_name: dict[str, ClassInfo] = {}
        #: lock id -> reentrant?
        self.lock_reentrant: dict[str, bool] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: list[FileContext]) -> ProjectGraph:
        graph = cls()
        for ctx in files:
            name, is_package = module_name_for(ctx)
            module = ModuleInfo(name=name, ctx=ctx, is_package=is_package)
            graph.modules.setdefault(name, module)
        for module in list(graph.modules.values()):
            graph._collect_imports(module)
            graph._collect_definitions(module)
        for module in graph.modules.values():
            graph._collect_class_facts(module)
        for module in graph.modules.values():
            for summary in _module_summaries(module):
                graph._summarize(module, summary)
        graph._close_transitive()
        return graph

    def _collect_imports(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        module.imports[alias.asname] = alias.name
                    else:
                        module.imports[alias.name.split(".")[0]] = alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                base = self._resolve_import_base(module, node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.imports[local] = f"{base}.{alias.name}" if base else alias.name

    @staticmethod
    def _resolve_import_base(module: ModuleInfo, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        parts = module.name.split(".")
        # The package a plain module lives in is its name minus the last
        # component; a package (__init__.py) is its own package.
        package_parts = parts if module.is_package else parts[:-1]
        anchor = package_parts[: len(package_parts) - (node.level - 1)]
        if node.module:
            anchor = anchor + node.module.split(".")
        return ".".join(anchor)

    def _collect_definitions(self, module: ModuleInfo) -> None:
        for node in module.ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{module.name}.{node.name}"
                summary = FunctionSummary(
                    qualname=qualname,
                    module=module.name,
                    class_name=None,
                    name=node.name,
                    node=node,
                    ctx=module.ctx,
                    hot_path=node.lineno in module.ctx.hot_path_markers,
                )
                module.functions[node.name] = summary
                self.functions[qualname] = summary
            elif isinstance(node, ast.ClassDef):
                qualname = f"{module.name}.{node.name}"
                info = ClassInfo(
                    qualname=qualname,
                    module=module.name,
                    name=node.name,
                    node=node,
                    ctx=module.ctx,
                    process_shared=node.lineno in module.ctx.process_shared_markers,
                    base_names=[
                        ".".join(chain)
                        for base in node.bases
                        if (chain := attr_chain(base)) is not None
                    ],
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method_qual = f"{qualname}.{item.name}"
                        summary = FunctionSummary(
                            qualname=method_qual,
                            module=module.name,
                            class_name=node.name,
                            name=item.name,
                            node=item,
                            ctx=module.ctx,
                            hot_path=item.lineno in module.ctx.hot_path_markers,
                        )
                        info.methods[item.name] = summary
                        self.functions[method_qual] = summary
                module.classes[node.name] = info
                self.classes[qualname] = info
                self.classes_by_name.setdefault(node.name, info)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                value_name = self.external_name(module, node.value)
                if value_name in _LOCK_CONSTRUCTORS:
                    module.module_locks[target.id] = _LOCK_CONSTRUCTORS[value_name]
                    self.lock_reentrant[f"{module.name}.{target.id}"] = _LOCK_CONSTRUCTORS[
                        value_name
                    ]
                elif _is_mutable_literal(node.value) or value_name in _MUTABLE_FACTORIES:
                    module.mutable_globals[target.id] = node

    def _collect_class_facts(self, module: ModuleInfo) -> None:
        for info in module.classes.values():
            for item in info.node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    for type_name in self._annotation_types(module, item.annotation):
                        info.attr_types.append(
                            AttrType(item.target.id, "annotation", type_name, item)
                        )
            for method in info.methods.values():
                self._collect_self_assignments(module, info, method)
            for attr, reentrant in info.lock_attrs.items():
                self.lock_reentrant[f"{info.qualname}.{attr}"] = reentrant

    def _collect_self_assignments(
        self, module: ModuleInfo, info: ClassInfo, method: FunctionSummary
    ) -> None:
        for node in _walk_body(method.node):
            targets: list[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            for target in targets:
                chain = attr_chain(target)
                if chain is None or len(chain) != 2 or chain[0] != "self":
                    continue
                attr = chain[1]
                inferred = self._infer_value_type(module, info, value)
                if inferred is not None:
                    kind, type_name = inferred
                    info.attr_types.append(AttrType(attr, kind, type_name, node))
                    if kind == "class" and type_name in _LOCK_CONSTRUCTORS:
                        info.lock_attrs[attr] = _LOCK_CONSTRUCTORS[type_name]

    def _infer_value_type(
        self, module: ModuleInfo, info: ClassInfo, value: ast.expr
    ) -> Optional[tuple[str, str]]:
        if isinstance(value, ast.Lambda):
            return ("lambda", "lambda")
        if isinstance(value, ast.GeneratorExp):
            return ("generator", "generator")
        if isinstance(value, ast.Call):
            name = self.external_name(module, value.func)
            if name is not None:
                return ("class", name)
            return None
        # Element type of comprehension-built containers:
        # ``self._splines = {k: Spline(...) for ...}``.
        if isinstance(value, ast.DictComp) and isinstance(value.value, ast.Call):
            name = self.external_name(module, value.value.func)
            if name is not None:
                return ("class", name)
        if isinstance(value, (ast.ListComp, ast.SetComp)) and isinstance(value.elt, ast.Call):
            name = self.external_name(module, value.elt.func)
            if name is not None:
                return ("class", name)
        chain = attr_chain(value)
        if chain is not None and len(chain) == 2 and chain[0] == "self":
            if chain[1] in info.methods:
                return ("bound-method", f"{info.qualname}.{chain[1]}")
        return None

    def _annotation_types(self, module: ModuleInfo, annotation: ast.expr) -> list[str]:
        """Every type name an annotation mentions, resolved when possible."""
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return []
        names: list[str] = []
        for node in ast.walk(annotation):
            if isinstance(node, ast.Attribute):
                name = self.external_name(module, node)
                if name is not None:
                    names.append(name)
            elif isinstance(node, ast.Name):
                resolved = self.external_name(module, node)
                names.append(resolved if resolved is not None else node.id)
        # Attribute chains also walk their inner Name; drop bare prefixes
        # of dotted results.
        dotted = {name for name in names if "." in name}
        prefixes = {name.split(".")[0] for name in dotted}
        return [name for name in names if "." in name or name not in prefixes]

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def external_name(self, module: ModuleInfo, node: ast.expr) -> Optional[str]:
        """Dotted name of an expression with imports applied.

        ``np.linalg.solve`` with ``import numpy as np`` resolves to
        ``numpy.linalg.solve``; a project class resolves to its
        qualname.  Returns ``None`` for non-name expressions.
        """
        chain = attr_chain(node)
        if chain is None:
            return None
        head, rest = chain[0], chain[1:]
        if head in module.classes:
            base = module.classes[head].qualname
        elif head in module.functions:
            base = module.functions[head].qualname
        elif head in module.imports:
            base = module.imports[head]
        else:
            base = head
        full = ".".join([base, *rest]) if rest else base
        return self._chase_reexports(full)

    def _chase_reexports(self, qualified: str, depth: int = 0) -> str:
        """Follow ``pkg/__init__`` re-export chains to the real target."""
        if depth > 8:
            return qualified
        head, _, tail = qualified.rpartition(".")
        if not head or qualified in self.functions or qualified in self.classes:
            return qualified
        module = self.modules.get(head)
        if module is not None and tail in module.imports:
            return self._chase_reexports(module.imports[tail], depth + 1)
        # ``pkg.Class.method`` — chase the class component.
        grand, _, mid = head.rpartition(".")
        if grand:
            owner = self.modules.get(grand)
            if owner is not None and mid in owner.imports:
                chased = self._chase_reexports(owner.imports[mid], depth + 1)
                return f"{chased}.{tail}"
        return qualified

    def resolve_call(
        self, module: ModuleInfo, summary: FunctionSummary, chain: tuple[str, ...]
    ) -> Optional[str]:
        """Qualified name of the project function a call chain targets."""
        if chain[0] == "self" and summary.class_name is not None:
            info = module.classes.get(summary.class_name)
            if info is not None and len(chain) == 2:
                resolved = self._resolve_method(info, chain[1])
                if resolved is not None:
                    return resolved
            return None
        name = self.external_name(module, _chain_to_node(chain))
        if name is None:
            return None
        if name in self.functions:
            return name
        if name in self.classes:
            init = self.classes[name].methods.get("__init__")
            return init.qualname if init is not None else None
        return None

    def _resolve_method(self, info: ClassInfo, method: str, depth: int = 0) -> Optional[str]:
        if method in info.methods:
            return info.methods[method].qualname
        if depth > 4:
            return None
        for base_name in info.base_names:
            base = self.classes.get(base_name) or self.classes_by_name.get(
                base_name.split(".")[-1]
            )
            if base is not None:
                resolved = self._resolve_method(base, method, depth + 1)
                if resolved is not None:
                    return resolved
        return None

    def lock_id(
        self, module: ModuleInfo, summary: FunctionSummary, item: ast.expr
    ) -> Optional[str]:
        """Canonical id of the lock a ``with`` item acquires, if known."""
        chain = attr_chain(item)
        if chain is None:
            return None
        if chain[0] == "self" and len(chain) == 2 and summary.class_name is not None:
            info = module.classes.get(summary.class_name)
            if info is not None and chain[1] in info.lock_attrs:
                return f"{info.qualname}.{chain[1]}"
            return None
        if len(chain) == 1 and chain[0] in module.module_locks:
            return f"{module.name}.{chain[0]}"
        return None

    # ------------------------------------------------------------------
    # Function summaries (pass-1 facts)
    # ------------------------------------------------------------------
    def _summarize(self, module: ModuleInfo, summary: FunctionSummary) -> None:
        for node in _walk_body(summary.node):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if chain is None:
                    continue
                site = CallSite(chain=tuple(chain), node=node)
                site.target = self.resolve_call(module, summary, site.chain)
                summary.calls.append(site)
                summary.calls_by_node[id(node)] = site
                self._record_call_facts(module, summary, site)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    lock = self.lock_id(module, summary, item.context_expr)
                    if lock is not None:
                        summary.acquires.append(lock)
        self._record_global_mutations(module, summary)

    def _record_call_facts(
        self, module: ModuleInfo, summary: FunctionSummary, site: CallSite
    ) -> None:
        name = self.external_name(module, site.node.func)
        if name in SOLVE_FUNCTIONS:
            summary.solves = True
        if name is not None and name in BLOCKING_EXTERNALS:
            summary.blocking.append((BLOCKING_EXTERNALS[name], site.node))
            return
        if len(site.chain) == 1 and site.chain[0] == "open":
            summary.blocking.append(("open() file I/O", site.node))
        elif len(site.chain) >= 2 and site.chain[-1] in BLOCKING_METHODS:
            if site.target is None or site.chain[-1] == "size_batch":
                summary.blocking.append((f".{site.chain[-1]}() call", site.node))

    def _record_global_mutations(self, module: ModuleInfo, summary: FunctionSummary) -> None:
        declared_global: set[str] = set()
        for node in _walk_body(summary.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node in _walk_body(summary.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in declared_global:
                        summary.global_mutations.append((target.id, node))
                    elif isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        if target.value.id in module.mutable_globals:
                            summary.global_mutations.append((target.value.id, node))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        if target.value.id in module.mutable_globals:
                            summary.global_mutations.append((target.value.id, node))
            elif isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if (
                    chain is not None
                    and len(chain) == 2
                    and chain[0] in module.mutable_globals
                    and chain[1] in _MUTATOR_METHODS
                ):
                    summary.global_mutations.append((chain[0], node))

    # ------------------------------------------------------------------
    # Transitive closures
    # ------------------------------------------------------------------
    def _close_transitive(self) -> None:
        for summary in self.functions.values():
            for lock in summary.acquires:
                summary.t_locks.setdefault(lock, ())
            for desc, _node in summary.blocking:
                summary.t_blocking.setdefault(desc, ())
            if summary.solves:
                summary.t_solves = ()
        changed = True
        while changed:
            changed = False
            for summary in self.functions.values():
                for site in summary.calls:
                    if site.target is None or site.target == summary.qualname:
                        continue
                    callee = self.functions.get(site.target)
                    if callee is None:
                        continue
                    for lock, via in callee.t_locks.items():
                        if lock not in summary.t_locks:
                            summary.t_locks[lock] = (callee.qualname, *via)
                            changed = True
                    for desc, via in callee.t_blocking.items():
                        if desc not in summary.t_blocking:
                            summary.t_blocking[desc] = (callee.qualname, *via)
                            changed = True
                    if callee.t_solves is not None and summary.t_solves is None:
                        summary.t_solves = (callee.qualname, *callee.t_solves)
                        changed = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def reachable_from(self, qualname: str) -> set[str]:
        """Transitive closure of resolved calls starting at one function."""
        seen: set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            summary = self.functions.get(current)
            if summary is None:
                continue
            for site in summary.calls:
                if site.target is not None and site.target not in seen:
                    stack.append(site.target)
        return seen

    def module_for(self, summary: FunctionSummary) -> ModuleInfo:
        return self.modules[summary.module]


def _module_summaries(module: ModuleInfo):
    yield from module.functions.values()
    for info in module.classes.values():
        yield from info.methods.values()


def _walk_body(root: ast.AST):
    """Walk a function body without descending into nested defs/lambdas.

    Nested functions and lambdas do not execute when the enclosing body
    runs, so their facts must not leak into the enclosing summary.
    """
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _chain_to_node(chain: tuple[str, ...]) -> ast.expr:
    node: ast.expr = ast.Name(id=chain[0])
    for part in chain[1:]:
        node = ast.Attribute(value=node, attr=part)
    return node


def _is_mutable_literal(node: ast.expr) -> bool:
    return isinstance(
        node,
        (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp),
    )
