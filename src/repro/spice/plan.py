"""Compiled MNA stamp plan: the residual and Jacobian of one circuit structure.

The batched DC and transient kernels group candidate circuits by MNA
structure and run Newton over each group together.  A :class:`StampPlan`
is built once per group and makes every Newton iteration's assembly a
fixed sequence of whole-batch numpy operations, with no Python loop over
elements:

* one gather of every element terminal voltage out of the unknowns,
  which carry an extra zero column for ground;
* one fused EKV evaluation (:func:`repro.devices.ekv.stamp_terms`) over
  every ``(MOSFET slot, candidate)`` pair, on per-instance parameters
  (:class:`~repro.devices.ekv.DeviceArrays`) computed once per group;
* an *ordered accumulation* into each residual and Jacobian entry.

The accumulation is the bit-identity contract.  Floating-point addition
is not associative, so each entry receives its contributions in the
order of the scalar reference assembly in ``tests/scalar_reference.py``
(gmin shunt, resistors, current sources, MOSFETs, voltage sources, then
capacitor companion models), starting from the same ``+0.0`` or the same
constant gmin/resistor prefix.  Contribution ``r`` of every entry is its
rank ``r``: one gather lays each rank out as a row, and one add per rank
folds the rows left to right -- the loop runs over ranks (the largest
number of contributions any entry has), never over elements.  An entry
with fewer contributions than the deepest one reads a zero row for the
rest: a running sum that starts at ``+0.0`` is never ``-0.0``, so adding
``+0.0`` leaves it unchanged.

Inside the assembly the candidate axis is the *last* one: every value is
a row of ``m`` candidates, so the gathers copy whole rows and each rank
adds one contiguous block.  Only the returned ``f``/``J`` (the layout the
stacked linear solve wants) have one row per candidate.
"""

from __future__ import annotations

import copy

import numpy as np

from ..devices.ekv import DeviceArrays, stamp_terms
from .netlist import GROUND, Circuit

__all__ = ["StampPlan"]


class _Accumulation:
    """Ordered sums of signed value rows into a fixed set of entries.

    ``contributions`` lists ``(entry, row, sign)`` in the order the scalar
    assembly adds them.  The signed value matrix the sums read has
    ``2 * n_raw + 1`` rows -- the raw values, their negations and one zero
    row -- plus, when ``base`` is set, one row per entry holding the
    constant that entry starts from (otherwise it starts from the zero
    row).
    """

    def __init__(self, contributions: list, n_raw: int, base: bool):
        self.targets = np.array(sorted({entry for entry, _, _ in contributions}), dtype=np.intp)
        position = {int(entry): i for i, entry in enumerate(self.targets)}
        self.zero = zero = 2 * n_raw
        count = len(self.targets)
        ranks = [[zero + 1 + i for i in range(count)] if base else [zero] * count]
        depth = [1] * count
        for entry, row, sign in contributions:
            i = position[entry]
            if depth[i] == len(ranks):
                ranks.append([zero] * count)
            ranks[depth[i]][i] = row if sign > 0 else n_raw + row
            depth[i] += 1
        self.table = np.array(ranks, dtype=np.intp)
        self.rows = zero + 1 + (count if base else 0)

    def __call__(self, signed: np.ndarray, ranks: np.ndarray) -> np.ndarray:  # checks: hot-path
        """Fold every entry's contributions in order; returns ``(entries, m)``.

        ``ranks`` is ``(depth, entries, m)`` scratch; the result is a view
        of its first rank.
        """
        signed[self.zero] = 0.0
        np.take(signed, self.table, axis=0, out=ranks, mode="clip")
        total = ranks[0]
        for rank in ranks[1:]:
            total += rank
        return total


class _Columns:
    """Storage for ``(*shape, m)`` arrays, C-contiguous for any ``m`` up
    to ``batch``: the first ``prod(shape) * m`` elements of one flat
    buffer.  Views are kept per ``m``; a Newton loop meets few sizes."""

    def __init__(self, shape: tuple[int, ...], batch: int):
        self.shape = shape
        self.flat = np.zeros(int(np.prod(shape, dtype=int)) * batch)
        self.views: dict[int, np.ndarray] = {}

    def __call__(self, m: int) -> np.ndarray:
        view = self.views.get(m)
        if view is None:
            size = int(np.prod(self.shape, dtype=int)) * m
            view = self.views[m] = self.flat[:size].reshape(*self.shape, m)
        return view


class _Workspace:
    """Preallocated buffers of one plan's Newton loop, for up to ``batch``
    candidates.

    Row-per-candidate arrays are sliced ``[:m]``; the assembly's
    candidate-last arrays are :class:`_Columns`.  Every view is
    contiguous.
    """

    def __init__(self, plan: StampPlan, batch: int):
        size = plan.size
        self.x = np.zeros((batch, size + 1))
        self.newton_x = np.zeros((batch, size + 1))
        self.solutions = np.zeros((batch, size + 1))
        self.iterations = np.zeros(batch, dtype=int)
        self.converged = np.zeros(batch, dtype=bool)
        self.rows = np.arange(batch)
        self.f = np.zeros((batch, size))
        self.jac = np.zeros((batch, size, size))
        self.unknowns = _Columns((size + 1,), batch)
        self.volts = _Columns((plan.terminals.size,), batch)
        self.vgs = _Columns((plan.n_mosfets,), batch)
        self.vds = _Columns((plan.n_mosfets,), batch)
        self.supply = _Columns((plan.n_vsources,), batch)
        self.f_values = _Columns((plan.f_sum.rows,), batch)
        self.f_ranks = _Columns(plan.f_sum.table.shape, batch)
        self.j_values = _Columns((plan.j_sum.rows,), batch)
        self.j_ranks = _Columns(plan.j_sum.table.shape, batch)
        self.cap_g = _Columns((plan.n_caps,), batch)
        self.cap_v = _Columns((plan.n_caps,), batch)
        self.cap_v_new = _Columns((plan.n_caps,), batch)


class StampPlan:
    """Index arrays, per-candidate device data and accumulation tables of
    one structure group.

    ``circuits`` share one MNA structure (``repro.spice.dc._structure_key``);
    candidates may differ in MOSFET widths and technology parameters and
    in voltage-source values.  With ``capacitances`` -- shape
    ``(n_caps, P)``: each circuit's explicit capacitors, then ``Cgs`` and
    ``Cds`` of each MOSFET -- the plan also stamps the transient companion
    model of every capacitive element.

    The per-candidate arrays (:attr:`devices`, :attr:`vsource_dc`,
    :attr:`capacitance`) have one column per candidate; :meth:`take`
    returns the plan of a subset of candidates and shares everything else.
    """

    def __init__(self, circuits: list[Circuit], capacitances: np.ndarray | None = None):
        circuit = circuits[0]
        self.node_names = circuit.nodes()
        n = self.n_nodes = len(self.node_names)
        self.size = size = n + len(circuit.vsources)
        index = {name: i for i, name in enumerate(self.node_names)}

        def node(name: str) -> int:
            # Column ``size`` of the padded unknowns is ground.
            return size if name == GROUND else index[name]

        mosfets, resistors = circuit.mosfets, circuit.resistors
        isources, vsources = circuit.isources, circuit.vsources
        self.n_mosfets = n_mos = len(mosfets)
        self.n_vsources = n_v = len(vsources)
        drains = [node(m.drain) for m in mosfets]
        gates = [node(m.gate) for m in mosfets]
        sources = [node(m.source) for m in mosfets]
        res_ends = [(node(r.node1), node(r.node2)) for r in resistors]
        isrc_ends = [(node(s.pos), node(s.neg)) for s in isources]
        vsrc_ends = [(node(s.pos), node(s.neg)) for s in vsources]
        cap_ends: list[tuple[int, int]] = []
        if capacitances is not None:
            cap_ends = [(node(c.node1), node(c.node2)) for c in circuit.capacitors]
            for gate, drain, source in zip(gates, drains, sources, strict=True):
                cap_ends += [(gate, source), (drain, source)]
        self.n_caps = n_c = len(cap_ends)

        # One gather fetches every terminal voltage; each block is a slice.
        blocks = [
            drains, gates, sources,
            [a for a, _ in res_ends], [b for _, b in res_ends],
            [a for a, _ in vsrc_ends], [b for _, b in vsrc_ends],
            [a for a, _ in cap_ends], [b for _, b in cap_ends],
        ]
        self.terminals = np.array([i for block in blocks for i in block], dtype=np.intp)
        (
            self._drain, self._gate, self._source, self._res_a, self._res_b,
            self._vsrc_pos, self._vsrc_neg, self._cap_a, self._cap_b,
        ) = _slices(len(block) for block in blocks)

        # Per-element constants as columns, to broadcast over candidates.
        self._polarity = np.array([m.tech.polarity for m in mosfets], dtype=float)[:, None]
        self._conductance = np.array([r.conductance for r in resistors], dtype=float)[:, None]
        self._isource_dc = np.array([s.dc for s in isources], dtype=float)[:, None]
        self.devices = DeviceArrays.from_instances(
            [(c.mosfets[k].tech, c.mosfets[k].width, c.mosfets[k].length)
             for k in range(n_mos) for c in circuits],
            (n_mos, len(circuits)),
        )
        self.vsource_dc = np.array(
            [[c.vsources[k].dc for c in circuits] for k in range(n_v)], dtype=float
        ).reshape(n_v, len(circuits))
        self.capacitance = (
            np.zeros((0, len(circuits))) if capacitances is None
            else np.asarray(capacitances, dtype=float)
        )

        # Residual value rows: gmin*v per node, resistor currents,
        # current-source values, drain currents, branch currents, companion
        # currents.  Node rows of f are sums; branch rows are assigned.
        self.f_raw = n + len(resistors) + len(isources) + n_mos + n_v + n_c
        self._f_gmin, self._f_res, self._f_isrc, self._f_ids, self._f_branch, self._f_cap = _slices(
            (n, len(resistors), len(isources), n_mos, n_v, n_c)
        )
        f_terms = [(i, i, 1) for i in range(n)]
        for first, ends in (
            (self._f_res.start, res_ends),
            (self._f_isrc.start, isrc_ends),
            (self._f_ids.start, list(zip(drains, sources, strict=True))),
            (self._f_branch.start, vsrc_ends),
            (self._f_cap.start, cap_ends),
        ):
            for k, (a, b) in enumerate(ends):
                f_terms += [(a, first + k, 1), (b, first + k, -1)]
        # Every node has its gmin term, so the sums cover exactly rows [0, n).
        self.f_sum = _Accumulation([t for t in f_terms if t[0] < size], self.f_raw, base=False)

        # Jacobian value rows: gds, gm and gm + gds per MOSFET, then the
        # companion conductance per capacitive element.
        self.j_raw = 3 * n_mos + n_c
        self._j_gds, self._j_gm, self._j_both, self._j_cap = _slices((n_mos, n_mos, n_mos, n_c))
        j_terms: list[tuple[int, int, int]] = []
        for k, (d, g, s) in enumerate(zip(drains, gates, sources, strict=True)):
            gds, gm, both = self._j_gds.start + k, self._j_gm.start + k, self._j_both.start + k
            if d < size:
                j_terms.append((d * size + d, gds, 1))
                if g < size:
                    j_terms.append((d * size + g, gm, 1))
                if s < size:
                    j_terms.append((d * size + s, both, -1))
            if s < size:
                j_terms.append((s * size + s, both, 1))
                if d < size:
                    j_terms.append((s * size + d, gds, -1))
                if g < size:
                    j_terms.append((s * size + g, gm, -1))
        for k, (a, b) in enumerate(cap_ends):
            j_terms += _admittance(a, b, size, self._j_cap.start + k)
        self.j_sum = _Accumulation(j_terms, self.j_raw, base=True)
        self._res_ends, self._vsrc_ends = res_ends, vsrc_ends
        self._bases: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def take(self, columns: np.ndarray) -> StampPlan:
        """The plan of the candidates ``columns`` (structure data shared)."""
        subset = copy.copy(self)
        subset.devices = self.devices.take(columns)
        subset.vsource_dc = self.vsource_dc[:, columns]
        subset.capacitance = self.capacitance[:, columns]
        return subset

    def workspace(self, batch: int) -> _Workspace:
        """Newton and assembly buffers for up to ``batch`` candidates."""
        return _Workspace(self, batch)

    def padded(self, x: np.ndarray) -> np.ndarray:
        """``(P, size)`` unknowns with the zero ground column appended."""
        out = np.zeros((x.shape[0], self.size + 1))
        out[:, : self.size] = x
        return out

    def bias(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Polarity-normalized ``(vgs, vds)``, ``(n_mosfets, P)``, at padded
        ``(P, size + 1)`` unknowns."""
        volts = np.take(np.ascontiguousarray(x.T), self.terminals, axis=0)
        shape = (self.n_mosfets, x.shape[0])
        return self._bias(volts, np.empty(shape), np.empty(shape))

    def _bias(
        self, volts: np.ndarray, vgs: np.ndarray, vds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``pol * (vg - vs)`` and ``pol * (vd - vs)`` from gathered terminal
        voltages, into ``vgs``/``vds``."""
        np.subtract(volts[self._gate], volts[self._source], out=vgs)
        vgs *= self._polarity
        np.subtract(volts[self._drain], volts[self._source], out=vds)
        vds *= self._polarity
        return vgs, vds

    def cap_voltages(self, x: np.ndarray, work: _Workspace, out: np.ndarray) -> np.ndarray:  # checks: hot-path
        """Branch voltage ``v(a) - v(b)``, ``(n_caps, m)``, of every
        capacitive element at padded ``(m, size + 1)`` unknowns."""
        _, volts = self._gather(x, work)
        return np.subtract(volts[self._cap_a], volts[self._cap_b], out=out)

    def _gather(self, x: np.ndarray, work: _Workspace) -> tuple[np.ndarray, np.ndarray]:  # checks: hot-path
        """Padded ``x`` with one column per candidate, and every terminal
        voltage, ``(terminals, m)``."""
        m = x.shape[0]
        unknowns = work.unknowns(m)
        np.copyto(unknowns, x.T)
        return unknowns, np.take(unknowns, self.terminals, axis=0, out=work.volts(m), mode="clip")

    def _base(self, gmin: float) -> tuple[np.ndarray, np.ndarray]:
        """The constant part of the Jacobian at ``gmin``: the gmin shunts and
        resistor stamps (added before any MOSFET term) and the voltage-source
        incidence entries (rows and columns no other element touches)."""
        cached = self._bases.get(gmin)
        if cached is None:
            size, n = self.size, self.n_nodes
            base = np.zeros(size * size)
            base[np.arange(n) * (size + 1)] += gmin
            for (a, b), g in zip(self._res_ends, self._conductance[:, 0].tolist(), strict=True):
                for entry, _, sign in _admittance(a, b, size, 0):
                    base[entry] += sign * g
            for k, (pos, neg) in enumerate(self._vsrc_ends):
                row = n + k
                if pos < size:
                    base[pos * size + row] += 1.0
                if neg < size:
                    base[neg * size + row] -= 1.0
                if pos < size:
                    base[row * size + pos] += 1.0
                if neg < size:
                    base[row * size + neg] -= 1.0
            cached = (base.reshape(size, size), base[self.j_sum.targets, None].copy())
            self._bases[gmin] = cached
        return cached

    # ------------------------------------------------------------------
    def assemble(  # checks: hot-path
        self,
        x: np.ndarray,
        source_scale: float,
        gmin: float,
        work: _Workspace,
        companion: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Residual ``f(x)`` and Jacobian ``J(x)`` of the plan's candidates.

        ``x`` holds one padded unknown vector per candidate, ``(m, size +
        1)`` with a zero last column.  ``source_scale`` multiplies every
        independent source value (source stepping) and ``gmin`` is the
        shunt conductance at each node.  ``companion`` -- for a plan with
        capacitances -- is ``(g, v_prev, hist)``, each ``(n_caps, m)``:
        element ``e``'s companion current is ``g * (v - v_prev) - hist``.

        Returns views of ``work``'s ``(m, size)`` / ``(m, size, size)``
        buffers; every candidate's row is bit-identical to the scalar
        reference assembly of that candidate alone.
        """
        m = x.shape[0]
        n = self.n_nodes
        unknowns, volts = self._gather(x, work)
        vgs, vds = self._bias(volts, work.vgs(m), work.vds(m))
        drain_current, gm, gds = stamp_terms(vgs, vds, self.devices)

        values = work.f_values(m)
        np.multiply(unknowns[:n], gmin, out=values[self._f_gmin])
        current = np.subtract(volts[self._res_a], volts[self._res_b], out=values[self._f_res])
        current *= self._conductance
        values[self._f_isrc] = self._isource_dc * source_scale
        np.multiply(drain_current, self._polarity, out=values[self._f_ids])
        values[self._f_branch] = unknowns[n : self.size]
        if companion is not None:
            g, v_prev, hist = companion
            current = np.subtract(volts[self._cap_a], volts[self._cap_b], out=values[self._f_cap])
            current -= v_prev
            current *= g
            current -= hist
        np.negative(values[: self.f_raw], out=values[self.f_raw : 2 * self.f_raw])
        f = work.f[:m]
        f[:, :n] = self.f_sum(values, work.f_ranks(m)).T
        # Voltage-source rows: v(pos) - v(neg) - dc * source_scale.
        branch = np.subtract(volts[self._vsrc_pos], volts[self._vsrc_neg], out=work.supply(m))
        branch -= self.vsource_dc * source_scale
        f[:, n:] = branch.T

        base, base_entries = self._base(gmin)
        values = work.j_values(m)
        values[self._j_gds] = gds
        values[self._j_gm] = gm
        np.add(gm, gds, out=values[self._j_both])
        if companion is not None:
            values[self._j_cap] = companion[0]
        np.negative(values[: self.j_raw], out=values[self.j_raw : 2 * self.j_raw])
        values[2 * self.j_raw + 1 :] = base_entries
        jac = work.jac[:m]
        jac[...] = base
        jac.reshape(m, -1)[:, self.j_sum.targets] = self.j_sum(values, work.j_ranks(m)).T
        return f, jac


def _slices(lengths) -> list[slice]:
    """Consecutive slices of the given lengths."""
    bounds = np.cumsum([0, *lengths]).tolist()
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _admittance(a: int, b: int, size: int, row: int) -> list[tuple[int, int, int]]:
    """Jacobian terms of an admittance between nodes ``a`` and ``b``, in the
    scalar stamp order; index ``size`` (the ground column) is ground."""
    terms = []
    if a < size:
        terms.append((a * size + a, row, 1))
        if b < size:
            terms.append((a * size + b, row, -1))
    if b < size:
        terms.append((b * size + b, row, 1))
        if a < size:
            terms.append((b * size + a, row, -1))
    return terms
