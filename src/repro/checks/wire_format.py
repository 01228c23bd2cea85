"""``wire-format-drift``: request fields must reach the wire and the cache key.

Historical bugs (PRs 4-5): every extension of the request schema —
``corners`` in PR 4, then ``analyses`` and the transient targets in
PR 5 — had to *remember* to thread the new field through three places by
hand: ``SizingRequest.to_json``, ``SizingRequest.from_json``, and
``ResultCache.key``.  Forgetting the serializers breaks the wire format
visibly; forgetting the cache key is the dangerous one — two requests
differing only in the new field silently collide in the LRU and one of
them is answered with the other's verdict.  PR 4 shipped exactly that
hazard window for ``corners`` until the cache-collision tests caught it.

This rule makes the invariant structural: every dataclass field of
``SizingRequest`` and of the embedded ``DesignSpec`` must be referenced

* in ``to_json`` **and** ``from_json`` (directly, via a string-collection
  constant such as ``TRAN_METRIC_NAMES``, or through a helper method on
  the wire classes such as ``DesignSpec.tran_targets``), and
* in ``ResultCache.key`` — unless listed in :data:`CACHE_KEY_EXEMPT`
  (request *identity*, re-addressed on cache hits) or
  :data:`TRANSPORT_ONLY` (keys that, like ``deadline_ms``, describe the
  transport and must never influence sizing results).

A new field that skips any of the three is a CI failure at the field's
definition line, not a latent serving bug.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .core import FileContext, Finding, ProjectContext, Rule

__all__ = [
    "WireFormatRule",
    "TRANSPORT_ONLY",
    "CACHE_KEY_EXEMPT",
]

#: The class whose dataclass fields define the request wire format.
REQUEST_CLASS = "SizingRequest"
#: The spec class flattened into the request wire format.
SPEC_CLASS = "DesignSpec"
#: The cache class and the classmethod computing the result-cache key.
CACHE_CLASS, CACHE_KEY_METHOD = "ResultCache", "key"
SERIALIZER_METHODS = ("to_json", "from_json")

#: Wire keys that carry *transport* concerns (how a request travels),
#: not sizing inputs: they are stripped before the engine and must never
#: appear in the cache key.  ``deadline_ms`` is the canonical example —
#: the HTTP handler strips it (``repro.serve.app._parse_body``).
TRANSPORT_ONLY = frozenset({"deadline_ms"})

#: Request fields that are per-request *identity*, not content: cache
#: hits re-address the stored response (``with_request_id``), so keying
#: on these would defeat coalescing without changing any verdict.
CACHE_KEY_EXEMPT = frozenset({"id"})


def dataclass_fields(class_def: ast.ClassDef) -> list[tuple[str, int, int]]:
    """(name, line, col) of each annotated field in declaration order.

    ``ClassVar`` annotations and private (``_``-prefixed) names are not
    wire fields.
    """
    fields = []
    for node in class_def.body:
        if not isinstance(node, ast.AnnAssign) or not isinstance(node.target, ast.Name):
            continue
        if "ClassVar" in ast.dump(node.annotation):
            continue
        name = node.target.id
        if name.startswith("_"):
            continue
        fields.append((name, node.lineno, node.col_offset))
    return fields


class WireFormatRule(Rule):
    id = "wire-format-drift"
    summary = (
        "every SizingRequest/DesignSpec field must be referenced in "
        "to_json, from_json and ResultCache.key (or be explicitly "
        "transport-only/identity)"
    )

    def check(self, project: ProjectContext) -> Iterator[Finding]:
        request = _first_class(project, REQUEST_CLASS)
        if request is None:
            # Nothing to check in trees that don't define the wire format
            # (e.g. rule fixtures for other rules).
            return
        request_ctx, request_def = request
        spec = _first_class(project, SPEC_CLASS)
        cache_key = _method(project, CACHE_CLASS, CACHE_KEY_METHOD)

        method_index = _method_index(project, (request_def,) + (
            (spec[1],) if spec is not None else ()
        ))

        serializer_refs: dict[str, set[str]] = {}
        for name in SERIALIZER_METHODS:
            method = _class_method(request_def, name)
            if method is None:
                yield Finding(
                    rule=self.id,
                    path=request_ctx.display_path,
                    line=request_def.lineno,
                    col=request_def.col_offset,
                    message=(
                        f"{REQUEST_CLASS} defines no `{name}` — the wire "
                        "format contract requires explicit serializers"
                    ),
                )
                serializer_refs[name] = set()
                continue
            refs = _references(method, project, method_index, set())
            if spec is not None:
                spec_method = _class_method(spec[1], name)
                if spec_method is not None:
                    refs |= _references(spec_method, project, method_index, set())
            serializer_refs[name] = refs

        key_refs: set[str] | None = None
        if cache_key is not None:
            key_refs = _references(cache_key[1], project, method_index, set())

        checked: list[tuple[FileContext, str, int, int]] = [
            (request_ctx, name, line, col)
            for name, line, col in dataclass_fields(request_def)
        ]
        if spec is not None:
            checked.extend(
                (spec[0], name, line, col)
                for name, line, col in dataclass_fields(spec[1])
            )

        for ctx, field_name, line, col in checked:
            if field_name in TRANSPORT_ONLY:
                continue
            for serializer in SERIALIZER_METHODS:
                if field_name not in serializer_refs[serializer]:
                    yield Finding(
                        rule=self.id,
                        path=ctx.display_path,
                        line=line,
                        col=col,
                        message=(
                            f"field `{field_name}` is not referenced in "
                            f"{REQUEST_CLASS}.{serializer} — it will silently "
                            "drop off the wire format (the PR 4/5 drift shape); "
                            "serialize it, or list it in TRANSPORT_ONLY with a "
                            "justification"
                        ),
                    )
            if (
                key_refs is not None
                and field_name not in CACHE_KEY_EXEMPT
                and field_name not in key_refs
            ):
                yield Finding(
                    rule=self.id,
                    path=ctx.display_path,
                    line=line,
                    col=col,
                    message=(
                        f"field `{field_name}` is not referenced in "
                        f"{CACHE_CLASS}.{CACHE_KEY_METHOD} — requests differing "
                        "only in this field would collide in the result cache "
                        "and transfer each other's verdicts (the PR 4 corners "
                        "hazard); add it to the key, or to CACHE_KEY_EXEMPT if "
                        "it is pure request identity"
                    ),
                )


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def _first_class(
    project: ProjectContext, name: str
) -> tuple[FileContext, ast.ClassDef] | None:
    found = project.classes(name)
    return found[0] if found else None


def _class_method(class_def: ast.ClassDef, name: str) -> ast.FunctionDef | None:
    for node in class_def.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _method(
    project: ProjectContext, class_name: str, method_name: str
) -> tuple[FileContext, ast.FunctionDef] | None:
    for ctx, class_def in project.classes(class_name):
        method = _class_method(class_def, method_name)
        if method is not None:
            return ctx, method
    return None


def _method_index(
    project: ProjectContext, class_defs: tuple[ast.ClassDef, ...]
) -> dict[str, ast.FunctionDef]:
    """Methods of the wire classes by simple name, for call expansion."""
    index: dict[str, ast.FunctionDef] = {}
    for class_def in class_defs:
        for node in class_def.body:
            if isinstance(node, ast.FunctionDef):
                index.setdefault(node.name, node)
    return index


def _references(
    func: ast.FunctionDef,
    project: ProjectContext,
    method_index: dict[str, ast.FunctionDef],
    visited: set[str],
) -> set[str]:
    """Every name a serializer 'touches': attributes, string literals,
    keyword-argument names, string-collection constants it iterates, and
    (recursively) helper methods of the wire classes it calls."""
    if func.name in visited:
        return set()
    visited.add(func.name)
    refs: set[str] = set()
    collections = project.string_collections
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
        elif isinstance(node, ast.keyword) and node.arg is not None:
            refs.add(node.arg)
        elif isinstance(node, ast.Name) and node.id in collections:
            refs |= collections[node.id]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            callee = method_index.get(node.func.attr)
            if callee is not None:
                refs |= _references(callee, project, method_index, visited)
    return refs
