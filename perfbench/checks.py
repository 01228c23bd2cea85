"""Response checks, run on every run, and the response digest."""

from __future__ import annotations

import hashlib
import json
import math


def digest(responses: list[dict]) -> str:
    """sha256 of every response without its ``wall_time_s``."""
    lines = []
    for response in responses:
        stable = {key: value for key, value in response.items() if key != "wall_time_s"}
        lines.append(json.dumps(stable, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _metrics_json(metrics) -> dict:
    """The wire form of measured metrics (non-finite values -> ``None``)."""
    from repro.spice import TRAN_METRIC_NAMES

    def finite(value):
        return value if math.isfinite(value) else None

    payload = {name: finite(getattr(metrics, name)) for name in ("gain_db", "f3db_hz", "ugf_hz")}
    for name in TRAN_METRIC_NAMES:
        if getattr(metrics, name) is not None:
            payload[name] = finite(getattr(metrics, name))
    return payload


def check(requests: list[dict], responses: list[dict | None]) -> list[str]:
    """Every problem found; an empty list means the run's outputs are correct.

    * exactly one response per request, ids in request order;
    * every ``success=true`` response meets its own spec -- at every listed
      corner for corner requests, and within ``rel_tol`` (the derated spec
      the solvers chase) for every request;
    * the widths of every successful response, re-measured with
      ``OTATopology.measure_many``, give bit-identical metrics.
    """
    from repro.service import SizingRequest, SizingResponse
    from repro.topologies import topology_by_name

    problems: list[str] = []
    if len(responses) != len(requests):
        return [f"{len(responses)} responses for {len(requests)} requests"]
    remeasure: dict[tuple, list] = {}
    for raw_request, raw in zip(requests, responses, strict=True):
        rid = raw_request["id"]
        if raw is None:
            continue  # counted as failed by the caller
        if raw.get("request_id") != rid:
            problems.append(f"{rid}: response id {raw.get('request_id')!r} out of order")
            continue
        if not raw["success"]:
            continue
        request = SizingRequest.from_json(raw_request)
        response = SizingResponse.from_json(raw)
        if request.corners:
            names = [corner.name for corner in request.corners]
            corner_metrics = response.corner_metrics or {}
            if sorted(corner_metrics) != sorted(names):
                problems.append(f"{rid}: corner metrics for {sorted(corner_metrics)}, asked {names}")
                continue
            judged = list(corner_metrics.values())
        else:
            judged = [response.metrics]
        if not all(request.spec.satisfied(m, rel_tol=request.rel_tol) for m in judged):
            problems.append(f"{rid}: success=true but the spec is not met")
        key = (request.topology, request.corners, request.analyses)
        remeasure.setdefault(key, []).append((rid, request, raw))
    for (topology_name, corners, analyses), items in remeasure.items():
        topology = topology_by_name(topology_name)
        widths = [raw["widths"] for _, _, raw in items]
        if corners:
            sweeps = topology.measure_many(widths, corners=corners, analyses=analyses)
            for (rid, _, raw), sweep in zip(items, sweeps, strict=True):
                measured = {
                    corner.name: _metrics_json(outcome.result.metrics) if outcome.ok else None
                    for corner, outcome in zip(sweep.corners, sweep.outcomes, strict=True)
                }
                if measured != raw["corner_metrics"]:
                    problems.append(f"{rid}: re-measured corner metrics differ")
                elif raw["metrics"] != raw["corner_metrics"][raw["worst_corner"]]:
                    problems.append(f"{rid}: metrics are not the worst corner's")
        else:
            outcomes = topology.measure_many(widths, analyses=analyses)
            for (rid, _, raw), outcome in zip(items, outcomes, strict=True):
                measured = _metrics_json(outcome.result.metrics) if outcome.ok else None
                if measured != raw["metrics"]:
                    problems.append(f"{rid}: re-measured metrics differ")
    return problems


def first_round(request: dict, response: dict) -> bool:
    """The request met its spec at its first verification round.

    A copilot request: one round's simulations (one per listed corner).  A
    registry solver: its first evaluated population (zero iterations after
    it).  This is the paper's claim that one decode plus one simulation
    usually suffices, extended to the solvers so that a workload whose
    copilot requests never succeed still has a non-zero figure.
    """
    if not response["success"]:
        return False
    if request.get("method", "copilot") == "copilot":
        return response["spice_simulations"] == max(1, len(request.get("corners") or ()))
    return response["iterations"] == 0


def quality(requests: list[dict], responses: list[dict | None]) -> dict[str, float]:
    """Success, first-round and answered shares of one run."""
    n = len(requests)
    answered = [(q, r) for q, r in zip(requests, responses, strict=True)
                if r is not None and r.get("error") is None]
    return {
        "success_rate": sum(1 for _, r in answered if r["success"]) / n,
        "first_pass_rate": sum(1 for q, r in answered if first_round(q, r)) / n,
        "answered_rate": len(answered) / n,
    }
