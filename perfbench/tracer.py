"""Outside-in tracer: spans around the calls into each layer of the program.

The program itself has no spans yet, so this module times it from the
outside.  :func:`install` replaces each layer's public functions *where the
caller looks them up* -- module attributes for functions the caller imported
by name (``repro.service.engine.estimate_width``,
``repro.topologies.base.solve_dc_many``, ...), class attributes for methods
(``SizingEngine.size_batch``, ``Transformer.greedy_decode``, ...) -- with a
wrapper that times the call and forwards it unchanged.

Spans nest per thread, so each span's *self time* is its duration minus the
time its child spans cover.  Work counts come from the arguments and return
values (rows decoded, Newton iterations, ConvergenceError slots, ...).

To keep memory flat while the SPICE kernels make tens of thousands of device
calls, spans are aggregated per *window*: a window is one outermost span (one
``size_batch`` call), and it keeps its own start/end, the request ids it
served, and per-span-name call counts, self time and work counts.  Windows
stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from pathlib import Path

#: Self-time metric (seconds) for each span name.
SELF_TIME_METRICS = {
    "service.size_batch": "service.self_s",
    "service.solve": "service.solver_s",
    "core.predict": "core.self_s",
    "transformer.decode": "transformer.decode_s",
    "lut.widths": "lut.estimate_s",
    "lut.estimate": "lut.estimate_s",
    "topologies.measure_many": "topologies.self_s",
    "spice.dc": "spice.dc_s",
    "spice.ac": "spice.ac_s",
    "spice.tran": "spice.tran_s",
    "spice.linsolve": "spice.linsolve_s",
    "devices.ekv": "devices.ekv_s",
    "solvers.evaluate_many": "solvers.self_s",
}

#: Call-count metrics taken straight from the number of spans.
CALL_COUNT_METRICS = {
    "lut.estimate": "lut.estimate_calls",
    "spice.linsolve": "spice.linsolve_calls",
    "devices.ekv": "devices.ekv_calls",
}

#: Work counts the wrappers derive from arguments and return values.
WORK_COUNTS = (
    "core.predict_calls",
    "core.unparseable",
    "transformer.decode_calls",
    "transformer.decode_rows",
    "transformer.decode_steps",
    "transformer.row_steps",
    "transformer.useful_row_steps",
    "transformer.maxlen_cutoffs",
    "lut.rejected",
    "topologies.measure_calls",
    "topologies.candidates",
    "topologies.failed",
    "spice.dc_circuits",
    "spice.dc_newton_iters",
    "spice.dc_continuation",
    "spice.dc_nonconverged",
    "spice.ac_items",
    "spice.tran_items",
    "spice.tran_failed",
    "spice.linsolve_systems",
    "solvers.evaluated",
)


class Window:
    """Aggregated spans under one outermost span."""

    __slots__ = ("name", "tag", "start", "end", "calls", "self_s", "counts")

    def __init__(self, name: str, tag):
        self.name = name
        self.tag = tag
        self.start = 0.0
        self.end = 0.0
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "tag": self.tag,
            "start": self.start,
            "end": self.end,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


class Tracer:
    """Installs timing wrappers and collects per-window span aggregates.

    Timestamps are ``time.monotonic()`` (``CLOCK_MONOTONIC`` on Linux), so
    windows recorded in a server process line up with the client's clock.
    """

    def __init__(self) -> None:
        self.windows: list[Window] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, count=None, tag=None) -> None:
        """Replace ``owner.attr`` with a timed pass-through wrapper.

        ``count(counts, args, kwargs, result)`` adds work counts after a
        successful call; ``tag(args, kwargs)`` labels an outermost span
        (the request ids of a ``size_batch`` call).
        """
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = tracer._stack()
            if not stack:
                local.window = Window(name, tag(args, kwargs) if tag is not None else None)
            window = local.window
            frame = [0.0]
            stack.append(frame)
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                duration = end - start
                window.calls[name] += 1
                window.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    window.start, window.end = start, end
                    tracer.windows.append(window)
            if count is not None:
                count(window.counts, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([window.to_json() for window in self.windows]))


# ----------------------------------------------------------------------
# Work counts, from arguments and return values
# ----------------------------------------------------------------------
def _arg(args, kwargs, index: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _count_predict(counts, args, kwargs, result) -> None:
    counts["core.predict_calls"] += 1
    if isinstance(result, tuple):  # predict_params: one (parsed, text)
        pairs = [result]
    else:  # predict_params_many: {topology: [(parsed, text), ...]}
        pairs = [pair for group in result.values() for pair in group]
    counts["core.unparseable"] += sum(1 for parsed, _ in pairs if not parsed.complete)


def _count_decode(counts, args, kwargs, result) -> None:
    transformer = args[0]
    max_len = _arg(args, kwargs, 5, "max_len")
    limit = min(max_len or transformer.config.max_len, transformer.config.max_len)
    cap = limit - 1  # decode steps available after BOS
    # A row of n tokens that ended on EOS decoded n + 1 steps; a row
    # without EOS ran every step and was cut off at max_len.
    own_steps = [min(len(ids) + 1, cap) for ids in result]
    steps = max(own_steps, default=0)
    counts["transformer.decode_calls"] += 1
    counts["transformer.decode_rows"] += len(result)
    counts["transformer.decode_steps"] += steps
    counts["transformer.row_steps"] += steps * len(result)
    counts["transformer.useful_row_steps"] += sum(own_steps)
    counts["transformer.maxlen_cutoffs"] += sum(1 for ids in result if len(ids) >= cap)


def _count_widths(counts, args, kwargs, result) -> None:
    if result is None:
        counts["lut.rejected"] += 1


def _count_measure(counts, args, kwargs, result) -> None:
    counts["topologies.measure_calls"] += 1
    for entry in result:
        outcomes = getattr(entry, "outcomes", (entry,))  # CornerSweep or MeasureOutcome
        counts["topologies.candidates"] += len(outcomes)
        counts["topologies.failed"] += sum(1 for outcome in outcomes if not outcome.ok)


def _make_dc_counter(convergence_error):
    def count(counts, args, kwargs, result) -> None:
        counts["spice.dc_circuits"] += len(result)
        for solution in result:
            if isinstance(solution, convergence_error):
                counts["spice.dc_nonconverged"] += 1
                continue
            counts["spice.dc_newton_iters"] += solution.iterations
            if solution.strategy != "newton":
                counts["spice.dc_continuation"] += 1

    return count


def _count_ac(counts, args, kwargs, result) -> None:
    counts["spice.ac_items"] += len(result)


def _make_tran_counter(convergence_error):
    def count(counts, args, kwargs, result) -> None:
        counts["spice.tran_items"] += len(result)
        counts["spice.tran_failed"] += sum(
            1 for outcome in result if isinstance(outcome, convergence_error)
        )

    return count


def _count_linsolve(counts, args, kwargs, result) -> None:
    jac = _arg(args, kwargs, 0, "jac")
    systems = 1
    for dim in jac.shape[:-2]:
        systems *= dim
    counts["spice.linsolve_systems"] += systems


def _count_evaluate(counts, args, kwargs, result) -> None:
    counts["solvers.evaluated"] += len(result)


def _request_ids(args, kwargs) -> list[str]:
    return [request.id for request in _arg(args, kwargs, 1, "requests")]


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary of the sizing service; returns ``tracer``."""
    import repro.service.engine as engine_module
    import repro.spice.linsolve as linsolve
    import repro.topologies.base as topology_base
    from repro.core.bundle import SizingModel
    from repro.devices.ekv import EKVModel
    from repro.service.engine import SizingEngine
    from repro.solvers import available_solvers, solver_factory
    from repro.solvers.base import SearchObjective
    from repro.spice import ConvergenceError
    from repro.topologies.base import OTATopology
    from repro.transformer.model import Transformer

    tracer.wrap(SizingEngine, "size_batch", "service.size_batch", tag=_request_ids)
    wrapped_solvers = set()
    for method in available_solvers():
        factory = solver_factory(method)
        owner = next((cls for cls in getattr(factory, "__mro__", ()) if "solve" in vars(cls)), None)
        if owner is not None and owner not in wrapped_solvers:
            tracer.wrap(owner, "solve", "service.solve")
            wrapped_solvers.add(owner)
    tracer.wrap(SizingModel, "predict_params", "core.predict", count=_count_predict)
    tracer.wrap(SizingModel, "predict_params_many", "core.predict", count=_count_predict)
    tracer.wrap(Transformer, "greedy_decode", "transformer.decode", count=_count_decode)
    tracer.wrap(SizingEngine, "widths_from_params", "lut.widths", count=_count_widths)
    tracer.wrap(engine_module, "estimate_width", "lut.estimate")
    tracer.wrap(OTATopology, "measure_many", "topologies.measure_many", count=_count_measure)
    tracer.wrap(topology_base, "solve_dc_many", "spice.dc", count=_make_dc_counter(ConvergenceError))
    tracer.wrap(topology_base, "run_ac_many", "spice.ac", count=_count_ac)
    tracer.wrap(
        topology_base, "run_tran_many", "spice.tran", count=_make_tran_counter(ConvergenceError)
    )
    tracer.wrap(linsolve, "solve_stacked", "spice.linsolve", count=_count_linsolve)
    for method in ("drain_current", "transconductance", "output_conductance"):
        tracer.wrap(EKVModel, method, "devices.ekv")
    tracer.wrap(SearchObjective, "evaluate_many", "solvers.evaluate_many", count=_count_evaluate)
    return tracer


# ----------------------------------------------------------------------
# Per-layer metrics from the windows of a timed section
# ----------------------------------------------------------------------
def layer_totals(windows: list[dict]) -> dict[str, float]:
    """Self times, call counts and work counts summed over ``windows``."""
    totals: dict[str, float] = {name: 0.0 for name in SELF_TIME_METRICS.values()}
    totals.update({name: 0 for name in (*CALL_COUNT_METRICS.values(), *WORK_COUNTS)})
    for window in windows:
        for span, seconds in window["self_s"].items():
            totals[SELF_TIME_METRICS[span]] += seconds
        for span, calls in window["calls"].items():
            if span in CALL_COUNT_METRICS:
                totals[CALL_COUNT_METRICS[span]] += calls
        for name, value in window["counts"].items():
            totals[name] += value
    useful = totals.pop("transformer.useful_row_steps")
    row_steps = totals["transformer.row_steps"]
    totals["transformer.useful_frac"] = useful / row_steps if row_steps else 0.0
    return totals
