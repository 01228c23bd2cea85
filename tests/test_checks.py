"""Tests for :mod:`repro.checks` — the repo's AST invariant linter.

Each rule is exercised four ways: a positive fixture reproducing the
historical bug shape the rule encodes, a clean fixture, a suppressed hit
(``# checks: ignore[...]``), and an unused suppression.  A meta-test
pins the live ``src/repro`` tree clean under every default rule, which
is the same gate CI enforces.
"""

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.checks import DEFAULT_RULES, ProjectGraph, run_checks
from repro.checks.cli import main as checks_main
from repro.checks.core import UNUSED_SUPPRESSION, FileContext, ProjectContext
from repro.checks.fork_safety import ForkSafetyRule
from repro.checks.hot_loop import HotLoopRule
from repro.checks.json_safety import JsonSafetyRule
from repro.checks.lock_discipline import LockDisciplineRule
from repro.checks.lock_order import LockOrderRule
from repro.checks.registry import rule_by_id
from repro.checks.rng import RngDeterminismRule
from repro.checks.wire_format import WireFormatRule


def check_source(tmp_path: Path, source: str, rules, name: str = "fixture.py"):
    """Write one fixture module and run ``rules`` over it."""
    target = tmp_path / name
    target.write_text(textwrap.dedent(source))
    report = run_checks([target], list(rules), display_root=tmp_path)
    return report.findings


def write_package(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write a fixture package (``pkg/...`` relative paths) under tmp_path."""
    for relative, source in files.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return tmp_path


def check_package(tmp_path: Path, files: dict[str, str], rules):
    """Write a multi-module fixture package and run ``rules`` over it."""
    write_package(tmp_path, files)
    report = run_checks([tmp_path], list(rules), display_root=tmp_path)
    return report.findings


def build_graph(tmp_path: Path, files: dict[str, str]) -> ProjectGraph:
    """Pass-1 symbol table / call graph of a fixture package."""
    write_package(tmp_path, files)
    contexts = [
        FileContext.parse(path, display_path=str(path.relative_to(tmp_path)))
        for path in sorted(tmp_path.rglob("*.py"))
    ]
    return ProjectContext(contexts).graph


# ----------------------------------------------------------------------
# Framework: suppressions, unused suppressions, report shape, CLI
# ----------------------------------------------------------------------
class TestFramework:
    def test_rule_ids_registered(self):
        assert [rule.id for rule in DEFAULT_RULES] == [
            "lock-discipline",
            "lock-order",
            "fork-safety",
            "hot-loop",
            "wire-format-drift",
            "rng-determinism",
            "json-safety",
        ]
        assert rule_by_id("json-safety").id == "json-safety"

    def test_suppression_silences_finding(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import json

            def emit(payload):
                return json.dumps(payload)  # checks: ignore[json-safety]
            """,
            [JsonSafetyRule()],
        )
        assert findings == []

    def test_suppression_is_rule_specific(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import json

            def emit(payload):
                return json.dumps(payload)  # checks: ignore[lock-discipline]
            """,
            [JsonSafetyRule()],
        )
        rules = {finding.rule for finding in findings}
        # The real finding survives AND the mismatched ignore is stale.
        assert rules == {"json-safety", UNUSED_SUPPRESSION}

    def test_unused_suppression_reported(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            def fine():
                return 1  # checks: ignore[json-safety]
            """,
            [JsonSafetyRule()],
        )
        assert len(findings) == 1
        assert findings[0].rule == UNUSED_SUPPRESSION
        assert "json-safety" in findings[0].message

    def test_syntax_error_becomes_finding(self, tmp_path):
        findings = check_source(tmp_path, "def broken(:\n", DEFAULT_RULES)
        assert [finding.rule for finding in findings] == ["syntax-error"]

    def test_report_dict_shape(self, tmp_path):
        target = tmp_path / "fixture.py"
        target.write_text("import json\njson.dumps({})\n")
        report = run_checks([target], [JsonSafetyRule()], display_root=tmp_path)
        payload = report.as_dict()
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        assert payload["counts"] == {"json-safety": 1}
        assert payload["findings"][0]["path"] == "fixture.py"
        # The report itself must round-trip as strict JSON.
        assert json.loads(json.dumps(payload, allow_nan=False)) == payload

    def test_cli_exit_codes_and_report_file(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import json\njson.dumps({})\n")
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        out = tmp_path / "report.json"

        assert checks_main([str(clean)]) == 0
        assert checks_main([str(dirty), "--output", str(out)]) == 1
        assert checks_main([str(tmp_path / "missing.py")]) == 2

        payload = json.loads(out.read_text())
        assert payload["counts"] == {"json-safety": 1}
        capsys.readouterr()

    def test_cli_list_rules(self, capsys):
        assert checks_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in DEFAULT_RULES:
            assert rule.id in out

    def test_repro_checks_subcommand_forwards_to_checks_cli(self, tmp_path, capsys):
        from repro.service.cli import main as repro_main

        dirty = tmp_path / "dirty.py"
        dirty.write_text("import json\njson.dumps({})\n")
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        for args in (
            ["--list-rules"],
            [str(clean)],
            [str(dirty), "--output", str(tmp_path / "report.json")],
        ):
            direct = checks_main(args)
            direct_out = capsys.readouterr().out
            forwarded = repro_main(["checks", *args])
            assert (forwarded, capsys.readouterr().out) == (direct, direct_out)
        assert direct == 1


# ----------------------------------------------------------------------
# lock-discipline (the PR 6 EngineStats/ResultCache retrofit)
# ----------------------------------------------------------------------
class TestLockDiscipline:
    RULE = [LockDisciplineRule()]

    def test_unlocked_stats_write_flagged(self, tmp_path):
        # Minimal repro of the historical bug: a counter increment on a
        # thread-shared stats object without the lock.
        findings = check_source(
            tmp_path,
            """
            import threading

            class EngineStats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._requests = 0

                def record(self):
                    self._requests += 1
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert findings[0].rule == "lock-discipline"
        assert "self._requests" in findings[0].message

    def test_locked_write_clean(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import threading

            class EngineStats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._requests = 0

                def record(self):
                    with self._lock:
                        self._requests += 1
            """,
            self.RULE,
        )
        assert findings == []

    def test_init_is_exempt_and_mutator_calls_flagged(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import threading
            from collections import OrderedDict

            class ResultCache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = OrderedDict()

                def clear(self):
                    self._entries.clear()
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert "self._entries.clear()" in findings[0].message

    def test_nested_function_is_treated_as_unlocked(self, tmp_path):
        # A closure created under the lock may run after release.
        findings = check_source(
            tmp_path,
            """
            import threading

            class ServeStats:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def deferred(self):
                    with self._lock:
                        def later():
                            self._count += 1
                        return later
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert "self._count" in findings[0].message

    def test_marker_comment_opts_in_new_class(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import threading

            class ShardPool:  # checks: thread-shared[_guard]
                def __init__(self):
                    self._guard = threading.Lock()
                    self._shards = []

                def locked_add(self, shard):
                    with self._guard:
                        self._shards.append(shard)

                def unlocked_add(self, shard):
                    self._shards.append(shard)
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert "ShardPool.unlocked_add" in findings[0].message

    def test_suppressed_hit_and_unused_suppression(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import threading

            class MicroBatcher:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._queue = []

                def helper(self):
                    # Caller holds the lock (see test fixture rationale).
                    self._queue.pop()  # checks: ignore[lock-discipline]

                def fine(self):
                    with self._lock:
                        self._queue.append(1)  # checks: ignore[lock-discipline]
            """,
            self.RULE,
        )
        # The helper's ignore is consumed; the locked line's ignore is stale.
        assert [finding.rule for finding in findings] == [UNUSED_SUPPRESSION]
        assert findings[0].line == 15


# ----------------------------------------------------------------------
# wire-format-drift (the PR 4/5 corners/analyses/tran-targets drift)
# ----------------------------------------------------------------------
class TestWireFormat:
    RULE = [WireFormatRule()]

    CLEAN = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class SizingRequest:
        topology: str
        corners: tuple = ()
        id: str = "req-0"
        deadline_ms: float = 0.0

        def to_json(self):
            return {"topology": self.topology, "corners": list(self.corners), "id": self.id}

        @classmethod
        def from_json(cls, data):
            return cls(
                topology=data["topology"],
                corners=tuple(data["corners"]),
                id=data["id"],
            )

    class ResultCache:
        @staticmethod
        def key(request):
            return (request.topology, request.corners)
    """

    def test_clean_fixture(self, tmp_path):
        assert check_source(tmp_path, self.CLEAN, self.RULE) == []

    def test_field_missing_from_cache_key_flagged(self, tmp_path):
        # Minimal repro of the PR 4 hazard: `corners` serialized but not
        # part of the cache key -> requests differing only in corners
        # would collide and transfer each other's verdicts.
        source = self.CLEAN.replace(
            "return (request.topology, request.corners)",
            "return (request.topology,)",
        )
        findings = check_source(tmp_path, source, self.RULE)
        assert len(findings) == 1
        assert "`corners`" in findings[0].message
        assert "ResultCache.key" in findings[0].message

    def test_field_missing_from_serializers_flagged(self, tmp_path):
        source = self.CLEAN.replace(
            '"corners": list(self.corners), ', ""
        ).replace("corners=tuple(data[\"corners\"]),\n", "")
        findings = check_source(tmp_path, source, self.RULE)
        messages = [finding.message for finding in findings]
        assert len(findings) == 2
        assert any("SizingRequest.to_json" in message for message in messages)
        assert any("SizingRequest.from_json" in message for message in messages)

    def test_reference_via_string_collection_constant(self, tmp_path):
        # The live tree references transient fields through constants
        # (`for name in TRAN_METRIC_NAMES`); the rule must see through it.
        findings = check_source(
            tmp_path,
            """
            from dataclasses import dataclass

            FIELD_NAMES = ("topology", "corners")

            @dataclass(frozen=True)
            class SizingRequest:
                topology: str
                corners: tuple = ()

                def to_json(self):
                    return {name: getattr(self, name) for name in FIELD_NAMES}

                @classmethod
                def from_json(cls, data):
                    return cls(**{name: data[name] for name in FIELD_NAMES})

            class ResultCache:
                @staticmethod
                def key(request):
                    return tuple(getattr(request, name) for name in FIELD_NAMES)
            """,
            self.RULE,
        )
        assert findings == []

    def test_no_request_class_means_no_findings(self, tmp_path):
        assert check_source(tmp_path, "x = 1\n", self.RULE) == []


# ----------------------------------------------------------------------
# rng-determinism (explicit-Generator protocol)
# ----------------------------------------------------------------------
class TestRngDeterminism:
    RULE = [RngDeterminismRule()]

    def test_module_level_np_random_call_flagged(self, tmp_path):
        # Minimal repro of the bug shape: process-global RNG state.
        findings = check_source(
            tmp_path,
            """
            import numpy as np

            def jitter(widths):
                return widths + np.random.rand(len(widths))
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert "np.random.rand" in findings[0].message

    def test_stdlib_random_import_flagged(self, tmp_path):
        findings = check_source(tmp_path, "import random\n", self.RULE)
        assert len(findings) == 1
        assert "stdlib `random`" in findings[0].message

    def test_legacy_numpy_random_import_flagged(self, tmp_path):
        findings = check_source(
            tmp_path, "from numpy.random import shuffle\n", self.RULE
        )
        assert len(findings) == 1
        assert "numpy.random.shuffle" in findings[0].message

    def test_time_derived_seed_flagged(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import time
            import numpy as np

            rng = np.random.default_rng(int(time.time()))
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert "time.time" in findings[0].message

    def test_explicit_generator_protocol_clean(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import zlib
            import numpy as np

            def make_rng(request_id: str) -> np.random.Generator:
                return np.random.default_rng(zlib.crc32(request_id.encode()))

            def sample(rng: np.random.Generator) -> float:
                return float(rng.normal())
            """,
            self.RULE,
        )
        assert findings == []

    def test_suppressed_hit(self, tmp_path):
        findings = check_source(
            tmp_path,
            "import random  # checks: ignore[rng-determinism]\n",
            self.RULE,
        )
        assert findings == []


# ----------------------------------------------------------------------
# json-safety (the PR 3 bare-Infinity solver-history bug)
# ----------------------------------------------------------------------
class TestJsonSafety:
    RULE = [JsonSafetyRule()]

    def test_bare_dumps_flagged(self, tmp_path):
        # Minimal repro of the historical bug: an inf objective reaches
        # json.dumps, which would emit bare `Infinity` (not JSON).
        findings = check_source(
            tmp_path,
            """
            import json

            def history_line(best_objective: float) -> str:
                return json.dumps({"best": best_objective})
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert "allow_nan" in findings[0].message

    def test_allow_nan_false_clean(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import json

            def emit(payload) -> str:
                return json.dumps(payload, sort_keys=True, allow_nan=False)
            """,
            self.RULE,
        )
        assert findings == []

    def test_allow_nan_true_flagged(self, tmp_path):
        findings = check_source(
            tmp_path,
            "import json\njson.dumps({}, allow_nan=True)\n",
            self.RULE,
        )
        assert len(findings) == 1
        assert "does not pin" in findings[0].message

    def test_from_import_alias_flagged(self, tmp_path):
        findings = check_source(
            tmp_path,
            "from json import dumps as to_text\nto_text({})\n",
            self.RULE,
        )
        assert len(findings) == 1

    def test_json_dump_to_file_flagged(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import io
            import json

            json.dump({}, io.StringIO())
            """,
            self.RULE,
        )
        assert len(findings) == 1

    def test_enforcement_is_real(self):
        # The convention the rule enforces actually catches the PR 3 bug.
        with pytest.raises(ValueError):
            json.dumps({"best": float("inf")}, allow_nan=False)


# ----------------------------------------------------------------------
# Pass 1: the project-wide symbol table / call graph
# ----------------------------------------------------------------------
class TestProjectGraph:
    PKG = {
        "pkg/__init__.py": """
            from .solvers import dense_solve
            """,
        "pkg/solvers.py": """
            import numpy as np

            def dense_solve(matrix, rhs):
                return np.linalg.solve(matrix, rhs)
            """,
        "pkg/callers.py": """
            from pkg import dense_solve
            from pkg import solvers as sv

            class Runner:
                def run(self, matrix, rhs):
                    return self.helper(matrix, rhs)

                def helper(self, matrix, rhs):
                    return dense_solve(matrix, rhs)

            def via_alias(matrix, rhs):
                return sv.dense_solve(matrix, rhs)

            def via_reexport(matrix, rhs):
                return dense_solve(matrix, rhs)
            """,
    }

    @staticmethod
    def resolved_calls(graph, qualname):
        summary = graph.functions[qualname]
        return [site.target for site in summary.calls if site.target is not None]

    def test_import_as_resolves_module_alias(self, tmp_path):
        graph = build_graph(tmp_path, self.PKG)
        assert self.resolved_calls(graph, "pkg.callers.via_alias") == [
            "pkg.solvers.dense_solve"
        ]

    def test_reexport_resolves_through_package_init(self, tmp_path):
        # `from pkg import dense_solve` must chase pkg/__init__.py back
        # to the defining module, not invent a `pkg.dense_solve` symbol.
        graph = build_graph(tmp_path, self.PKG)
        assert self.resolved_calls(graph, "pkg.callers.via_reexport") == [
            "pkg.solvers.dense_solve"
        ]

    def test_self_method_call_resolves_to_own_class(self, tmp_path):
        graph = build_graph(tmp_path, self.PKG)
        assert self.resolved_calls(graph, "pkg.callers.Runner.run") == [
            "pkg.callers.Runner.helper"
        ]

    def test_transitive_solve_closure_crosses_modules(self, tmp_path):
        graph = build_graph(tmp_path, self.PKG)
        assert graph.functions["pkg.solvers.dense_solve"].t_solves == ()
        # Runner.run -> Runner.helper -> dense_solve, two hops with the
        # last one in another module.
        assert graph.functions["pkg.callers.Runner.run"].t_solves == (
            "pkg.callers.Runner.helper",
            "pkg.solvers.dense_solve",
        )


# ----------------------------------------------------------------------
# lock-order (cycles, reacquisition, blocking work under a lock)
# ----------------------------------------------------------------------
class TestLockOrder:
    RULE = [LockOrderRule()]

    def test_two_lock_cycle_flagged(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
            """,
            self.RULE,
        )
        assert len(findings) == 2  # one per conflicting site
        assert all(finding.rule == "lock-order" for finding in findings)
        assert all("cycle" in finding.message for finding in findings)

    def test_consistent_order_clean(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import threading

            class Pair:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def one(self):
                    with self._a:
                        with self._b:
                            pass

                def two(self):
                    with self._a:
                        with self._b:
                            pass
            """,
            self.RULE,
        )
        assert findings == []

    def test_interprocedural_cycle_two_calls_deep(self, tmp_path):
        # The acceptance shape: the nested acquisition happens two
        # resolved calls away from the `with` that holds the first lock.
        findings = check_source(
            tmp_path,
            """
            import threading

            class Engine:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def outer(self):
                    with self._a:
                        self.mid()

                def mid(self):
                    self.deep()

                def deep(self):
                    with self._b:
                        pass

                def reversed_order(self):
                    with self._b:
                        with self._a:
                            pass
            """,
            self.RULE,
        )
        cycles = [f for f in findings if "cycle" in f.message]
        assert len(cycles) == 2
        interprocedural = [f for f in cycles if "via" in f.message]
        assert len(interprocedural) == 1
        assert "Engine.mid -> Engine.deep" in interprocedural[0].message

    def test_nonreentrant_reacquisition_flagged_rlock_clean(self, tmp_path):
        source = """
        import threading

        class Cache:
            def __init__(self):
                self._lock = threading.{lock_type}()

            def get(self):
                with self._lock:
                    return self.peek()

            def peek(self):
                with self._lock:
                    return 1
        """
        findings = check_source(tmp_path, source.format(lock_type="Lock"), self.RULE)
        assert len(findings) == 1
        assert "reacquired" in findings[0].message
        assert check_source(tmp_path, source.format(lock_type="RLock"), self.RULE) == []

    def test_blocking_call_under_lock_flagged(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import threading
            import time

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()

                def snooze(self):
                    with self._lock:
                        time.sleep(0.1)
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message
        assert "Stats._lock" in findings[0].message

    def test_interprocedural_blocking_two_calls_deep(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import threading
            import time

            class Engine:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.mid()

                def mid(self):
                    self.deep()

                def deep(self):
                    time.sleep(0.1)
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert "via Engine.mid -> Engine.deep" in findings[0].message

    def test_blocking_outside_lock_clean(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import threading
            import time

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()

                def snooze(self):
                    with self._lock:
                        pending = True
                    if pending:
                        time.sleep(0.1)
            """,
            self.RULE,
        )
        assert findings == []

    def test_suppressed_hit_and_unused_suppression(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import threading
            import time

            class Stats:
                def __init__(self):
                    self._lock = threading.Lock()

                def snooze(self):
                    with self._lock:
                        time.sleep(0.1)  # checks: ignore[lock-order]

                def fine(self):
                    with self._lock:
                        pass  # checks: ignore[lock-order]
            """,
            self.RULE,
        )
        assert [finding.rule for finding in findings] == [UNUSED_SUPPRESSION]


# ----------------------------------------------------------------------
# fork-safety (process-shared objects stay plain data)
# ----------------------------------------------------------------------
class TestForkSafety:
    RULE = [ForkSafetyRule()]

    def test_direct_lock_attribute_flagged(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import threading

            class Bundle:  # checks: process-shared
                def __init__(self):
                    self._lock = threading.Lock()
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert "threading.Lock" in findings[0].message
        assert "Bundle -> _lock" in findings[0].message

    def test_transitive_attribute_typing_across_files(self, tmp_path):
        # The lock hides one class and one module away from the marker.
        findings = check_package(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/inner.py": """
                    import threading

                    class Inner:
                        def __init__(self):
                            self._guard = threading.Lock()
                    """,
                "pkg/outer.py": """
                    from pkg.inner import Inner

                    class Bundle:  # checks: process-shared
                        def __init__(self):
                            self.inner = Inner()
                    """,
            },
            self.RULE,
        )
        assert len(findings) == 1
        assert "Bundle -> inner: Inner -> _guard" in findings[0].message

    def test_bound_method_and_generator_flagged(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            class Model:  # checks: process-shared
                def __init__(self, items):
                    self.hook = self.step
                    self.stream = (item for item in items)

                def step(self):
                    return 1
            """,
            self.RULE,
        )
        messages = " ".join(finding.message for finding in findings)
        assert len(findings) == 2
        assert "bound method" in messages
        assert "generator" in messages

    def test_plain_data_clean(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import numpy as np

            class Tables:  # checks: process-shared
                def __init__(self, grid):
                    self.grid = np.asarray(grid)
                    self.names = ("id", "gm")
            """,
            self.RULE,
        )
        assert findings == []

    def test_http_server_socket_flagged(self, tmp_path):
        # A worker entrypoint must never inherit the parent's listener.
        findings = check_source(
            tmp_path,
            """
            from http.server import ThreadingHTTPServer

            class WorkerContext:  # checks: process-shared
                def __init__(self, handler):
                    self.server = ThreadingHTTPServer(("", 0), handler)
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert "listening HTTP server" in findings[0].message
        assert "WorkerContext -> server" in findings[0].message

    def test_sqlite_connection_flagged(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import sqlite3

            class Cache:  # checks: process-shared
                def __init__(self, path):
                    self._conn = sqlite3.connect(path)
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert "sqlite3 connection" in findings[0].message

    def test_multiprocessing_queue_flagged(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import multiprocessing

            class Pool:  # checks: process-shared
                def __init__(self):
                    self.inbox = multiprocessing.Queue()
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert "multiprocessing.Queue" in findings[0].message

    def test_batcher_queue_flagged_transitively(self, tmp_path):
        # The satellite pin: parent's MicroBatcher-shaped object (its
        # internal queue.Queue and dispatcher thread) caught through the
        # project-class descent, not by naming the class in the rule.
        findings = check_package(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/batcher.py": """
                    import queue
                    import threading

                    class MicroBatcher:
                        def __init__(self):
                            self._queue = queue.Queue()
                            self._thread = threading.Thread(target=self._loop)

                        def _loop(self):
                            pass
                    """,
                "pkg/worker.py": """
                    from pkg.batcher import MicroBatcher

                    class WorkerContext:  # checks: process-shared
                        def __init__(self):
                            self.batcher = MicroBatcher()
                    """,
            },
            self.RULE,
        )
        messages = " ".join(finding.message for finding in findings)
        assert len(findings) == 2
        assert "WorkerContext -> batcher: MicroBatcher -> _queue" in messages
        assert "WorkerContext -> batcher: MicroBatcher -> _thread" in messages

    def test_module_state_under_size_batch_is_warning(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            _CACHE = {}

            def remember(key, value):
                _CACHE[key] = value

            class SizingEngine:
                def size_batch(self, requests):
                    for request in requests:
                        remember(request, 1)
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert "_CACHE" in findings[0].message
        assert "size_batch" in findings[0].message


# ----------------------------------------------------------------------
# hot-loop (vectorization discipline in marked kernels)
# ----------------------------------------------------------------------
class TestHotLoop:
    RULE = [HotLoopRule()]

    def test_per_item_solve_in_loop_flagged(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import numpy as np

            def solve_each(mats, rhs):  # checks: hot-path
                outs = []
                for m, r in zip(mats, rhs):
                    outs.append(np.linalg.solve(m, r))
                return outs
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert "per-item" in findings[0].message

    def test_chunked_stacked_solve_clean(self, tmp_path):
        # The run_ac_many shape: a chunking loop whose solve consumes
        # loop-invariant locals staged by gather ops must stay clean.
        findings = check_source(
            tmp_path,
            """
            import numpy as np

            def solve_chunks(mats, rhs):  # checks: hot-path
                outs = []
                for start in range(0, len(mats), 64):
                    m_stack = np.stack(mats[start : start + 64])
                    r_stack = np.stack(rhs[start : start + 64])
                    outs.append(np.linalg.solve(m_stack, r_stack))
                return outs
            """,
            self.RULE,
        )
        assert findings == []

    def test_allocation_inside_solve_loop_flagged(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import numpy as np

            def newton(mats, x):  # checks: hot-path
                for _ in range(10):
                    f = np.zeros(len(x))
                    x = x - np.linalg.solve(mats, f)
                return x
            """,
            self.RULE,
        )
        assert len(findings) == 1
        assert "np.zeros" in findings[0].message
        assert "preallocate" in findings[0].message

    def test_allocation_in_non_solving_loop_clean(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import numpy as np

            def stage(batches):  # checks: hot-path
                staged = []
                for batch in batches:
                    staged.append(np.zeros(len(batch)))
                return staged
            """,
            self.RULE,
        )
        assert findings == []

    def test_interprocedural_per_item_solve_flagged(self, tmp_path):
        findings = check_package(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/solvers.py": """
                    import numpy as np

                    def dense_solve(matrix, rhs):
                        return np.linalg.solve(matrix, rhs)
                    """,
                "pkg/hot.py": """
                    from pkg.solvers import dense_solve

                    def drive(mats, rhs):  # checks: hot-path
                        outs = []
                        for m, r in zip(mats, rhs):
                            outs.append(dense_solve(m, r))
                        return outs
                    """,
            },
            self.RULE,
        )
        assert len(findings) == 1
        assert "solvers.dense_solve" in findings[0].message
        assert "reaches a dense solve" in findings[0].message

    def test_sanctioned_solve_layer_call_clean(self, tmp_path):
        # The linsolve entry point is the blessed stacked-solve layer:
        # handing it per-group chunk arrays from a hot-path loop is the
        # intended shape, not a per-item regression.
        findings = check_package(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/spice/__init__.py": "",
                "repro/spice/linsolve.py": """
                    import numpy as np

                    def solve_stacked(jac, rhs, pattern=None):
                        return np.linalg.solve(jac, rhs[..., None])[..., 0]
                    """,
                "repro/spice/dc.py": """
                    from repro.spice.linsolve import solve_stacked

                    def newton_groups(groups):  # checks: hot-path
                        outs = []
                        for jac, rhs in groups:
                            outs.append(solve_stacked(jac, rhs))
                        return outs
                    """,
            },
            self.RULE,
        )
        assert findings == []

    def test_sanctioned_loop_still_counts_for_allocations(self, tmp_path):
        # The sanction only silences the transitive-solve finding: a loop
        # around solve_stacked is still a solve loop, so fresh work-array
        # allocations inside it keep getting flagged.
        findings = check_package(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/spice/__init__.py": "",
                "repro/spice/linsolve.py": """
                    import numpy as np

                    def solve_stacked(jac, rhs, pattern=None):
                        return np.linalg.solve(jac, rhs[..., None])[..., 0]
                    """,
                "repro/spice/dc.py": """
                    import numpy as np

                    from repro.spice.linsolve import solve_stacked

                    def newton_groups(groups):  # checks: hot-path
                        outs = []
                        for jac, rhs in groups:
                            scratch = np.empty(rhs.shape)
                            outs.append(solve_stacked(jac, rhs + scratch))
                        return outs
                    """,
            },
            self.RULE,
        )
        assert len(findings) == 1
        assert "np.empty" in findings[0].message

    def test_except_handler_fallback_exempt(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import numpy as np

            def robust(mats, rhs):  # checks: hot-path
                try:
                    return np.linalg.solve(mats, rhs)
                except np.linalg.LinAlgError:
                    outs = []
                    for m, r in zip(mats, rhs):
                        outs.append(np.linalg.solve(m, r))
                    return outs
            """,
            self.RULE,
        )
        assert findings == []

    def test_unmarked_function_not_checked(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import numpy as np

            def reference(mats, rhs):
                return [np.linalg.solve(m, r) for m, r in zip(mats, rhs)]
            """,
            self.RULE,
        )
        assert findings == []

    def test_suppressed_hit_and_unused_suppression(self, tmp_path):
        findings = check_source(
            tmp_path,
            """
            import numpy as np

            def solve_each(mats, rhs):  # checks: hot-path
                outs = []
                for m, r in zip(mats, rhs):
                    outs.append(np.linalg.solve(m, r))  # checks: ignore[hot-loop]
                return outs

            def stacked(mats, rhs):  # checks: hot-path
                return np.linalg.solve(mats, rhs)  # checks: ignore[hot-loop]
            """,
            self.RULE,
        )
        assert [finding.rule for finding in findings] == [UNUSED_SUPPRESSION]


# ----------------------------------------------------------------------
# Severities (the CLI workflow)
# ----------------------------------------------------------------------
class TestBaselineAndSeverity:
    """The gate without a baseline file: every error finding fails the
    run, warnings fail only under ``--strict``."""

    DIRTY = "import json\njson.dumps({})\n"

    def test_warnings_pass_by_default_fail_under_strict(self, tmp_path, capsys):
        fixture = tmp_path / "engine.py"
        fixture.write_text(
            textwrap.dedent(
                """
                _CACHE = {}

                class SizingEngine:
                    def size_batch(self, requests):
                        _CACHE["latest"] = requests
                """
            )
        )
        assert checks_main([str(fixture)]) == 0
        assert checks_main([str(fixture), "--strict"]) == 1
        capsys.readouterr()

    def test_report_severities_in_json(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(self.DIRTY)
        out = tmp_path / "report.json"
        assert checks_main([str(dirty), "--output", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["severities"] == {"error": 1}
        assert payload["findings"][0]["severity"] == "error"
        capsys.readouterr()


# ----------------------------------------------------------------------
# Meta: the live tree is clean (the CI gate)
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_src_repro_is_clean_under_all_default_rules(self):
        package_root = Path(repro.__file__).resolve().parent
        report = run_checks([package_root], list(DEFAULT_RULES))
        assert report.findings == [], "\n".join(
            finding.format() for finding in report.findings
        )
        assert report.files_checked > 50
