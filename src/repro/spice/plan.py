"""Compiled MNA stamp plan: one circuit structure's DC, AC and transient systems.

The batched SPICE kernels group candidate circuits by MNA structure
(:func:`structure_groups`, one key for every analysis) and compile one
:class:`StampPlan` per group.  The plan owns what the structure fixes --
node indexing, the packing of the unknowns, the heuristic Newton start
point -- and makes every assembly a fixed sequence of whole-batch numpy
operations, with no Python loop over elements:

* one gather of every element terminal voltage out of the unknowns,
  which carry an extra zero column for ground;
* one fused EKV evaluation (:func:`repro.devices.ekv.stamp_terms`) over
  every ``(MOSFET slot, candidate)`` pair, on per-instance parameters
  (:class:`~repro.devices.ekv.DeviceArrays`) computed once per group;
* an *ordered accumulation* into each entry of the Newton residual and
  Jacobian (DC and transient) and of the small-signal ``G`` and ``C``
  (AC).

The accumulation is the bit-identity contract.  Floating-point addition
is not associative, so each entry receives its contributions in the
order of the scalar reference assembly in ``tests/scalar_reference.py``,
starting from the same ``+0.0`` or the same constant prefix:

* residual and Jacobian: gmin shunt, resistors, current sources,
  MOSFETs, voltage sources, then capacitor companion models;
* ``G``: resistors, then each MOSFET's ``gds`` admittance and ``gm``
  VCCS -- two terms, never their sum;
* ``C``: capacitors, then each MOSFET's ``Cds`` and ``Cgs``.

Contribution ``r`` of every entry is its rank ``r``: one gather lays each
rank out as a row, and one add per rank folds the rows left to right --
the loop runs over ranks (the largest number of contributions any entry
has), never over elements.  An entry with fewer contributions than the
deepest one reads a zero row for the rest: a running sum that starts at
``+0.0`` is never ``-0.0``, so adding ``+0.0`` leaves it unchanged.

Inside the assembly the candidate axis is the *last* one: every value is
a row of ``m`` candidates, so the gathers copy whole rows and each rank
adds one contiguous block.  Only the returned matrices (the layout the
stacked linear solve wants) have one row per candidate.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping, Sequence
from functools import cached_property
from itertools import accumulate

import numpy as np

from ..devices.ekv import DeviceArrays, stamp_terms
from .netlist import GROUND, Circuit

__all__ = ["StampPlan", "structure_groups"]


def _structure_key(circuit: Circuit):
    """Hashable MNA-structure signature, the one grouping rule of DC, AC
    and transient.

    Everything a plan takes from its group's first circuit goes into the
    key: node names, resistors, capacitor connectivity, current sources
    (DC and AC values), voltage-source names, connectivity and AC
    magnitudes, and each MOSFET's name, terminals, polarity and length.
    Widths, MOSFET technology parameters, voltage-source DC values and
    capacitances are per-candidate data and deliberately *excluded*, so
    one population evaluated at several PVT corners still forms a single
    batch (the corner axis stacks into the candidate axis).
    """
    return (
        tuple(circuit.nodes()),
        tuple((r.node1, r.node2, r.resistance) for r in circuit.resistors),
        tuple((c.node1, c.node2) for c in circuit.capacitors),
        tuple((s.pos, s.neg, s.dc, s.ac) for s in circuit.isources),
        tuple((s.name, s.pos, s.neg, s.ac) for s in circuit.vsources),
        tuple(
            (m.name, m.drain, m.gate, m.source, m.tech.polarity, m.length)
            for m in circuit.mosfets
        ),
    )


def structure_groups(circuits: Sequence[Circuit]) -> list[list[int]]:
    """Indices of ``circuits`` grouped by MNA structure, in first-seen order."""
    groups: dict = {}
    for index, circuit in enumerate(circuits):
        groups.setdefault(_structure_key(circuit), []).append(index)
    return list(groups.values())


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
    """Node indexing, index arrays, per-candidate data and accumulation
    tables of one structure group.

    ``circuits`` share one MNA structure (:func:`structure_groups`);
    candidates may differ in MOSFET widths and technology parameters, in
    voltage-source DC values and in capacitances.  With ``solutions`` --
    the circuits' DC operating points, aligned with them -- the plan is
    linearized there: it holds each MOSFET's ``gm``, ``gds``, ``Cgs`` and
    ``Cds``, assembles the small-signal ``G`` and ``C`` of the AC analysis
    (:meth:`small_signal_matrices`), and :meth:`assemble` stamps the
    transient companion model of every capacitive element: the explicit
    capacitors, then ``Cgs`` and ``Cds`` of each MOSFET.

    The per-candidate arrays (:attr:`devices`, :attr:`vsource_dc`,
    :attr:`capacitance`, :attr:`small_signal`) have one column per
    candidate; :meth:`take` returns the plan of a subset of candidates and
    shares everything else.  The device parameters and the accumulation
    tables are compiled on first use, so an AC plan evaluates no device
    parameters and a Newton plan builds no AC tables.
    """

    def __init__(self, circuits: list[Circuit], solutions: Sequence | None = None):
        circuit = circuits[0]
        self._circuits = circuits
        self.node_names = circuit.nodes()
        self.vsource_names = [source.name for source in circuit.vsources]
        n = self.n_nodes = len(self.node_names)
        self.size = size = n + len(circuit.vsources)
        self._index = index = {name: i for i, name in enumerate(self.node_names)}

        def node(name: str) -> int:
            # Column ``size`` of the padded unknowns is ground.
            return size if name == GROUND else index[name]

        mosfets, resistors, capacitors = circuit.mosfets, circuit.resistors, circuit.capacitors
        isources, vsources = circuit.isources, circuit.vsources
        self.n_mosfets = n_mos = len(mosfets)
        self.n_vsources = n_v = len(vsources)
        self._mos_ends = [(node(m.drain), node(m.gate), node(m.source)) for m in mosfets]
        self._res_ends = [(node(r.node1), node(r.node2)) for r in resistors]
        self._isrc_ends = [(node(s.pos), node(s.neg)) for s in isources]
        self._vsrc_ends = [(node(s.pos), node(s.neg)) for s in vsources]
        # Capacitive elements of a linearized plan: the capacitors, then
        # gs and ds of each MOSFET.
        self._cap_ends: list[tuple[int, int]] = []
        if solutions is not None:
            self._cap_ends = [(node(c.node1), node(c.node2)) for c in capacitors] + [
                ends for d, g, s in self._mos_ends for ends in ((g, s), (d, s))
            ]
        self.n_caps = n_c = len(self._cap_ends)

        # One gather fetches every terminal voltage; each block is a slice.
        drains = [d for d, _, _ in self._mos_ends]
        gates = [g for _, g, _ in self._mos_ends]
        sources = [s for _, _, s in self._mos_ends]
        blocks = [
            drains, gates, sources,
            [a for a, _ in self._res_ends], [b for _, b in self._res_ends],
            [a for a, _ in self._vsrc_ends], [b for _, b in self._vsrc_ends],
            [a for a, _ in self._cap_ends], [b for _, b in self._cap_ends],
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
        self._isource_ac = np.array([s.ac for s in isources], dtype=float)[:, None]
        self._vsource_ac = np.array([s.ac for s in vsources], dtype=float)[:, None]
        count = len(circuits)
        self.vsource_dc = np.array(
            [[c.vsources[k].dc for c in circuits] for k in range(n_v)], dtype=float
        ).reshape(n_v, count)
        self.capacitance = np.zeros((0, count))
        self.small_signal = np.zeros((0, count))
        if solutions is not None:
            # One gather of the linearization: (gds, gm, cgs, cds, slot, candidate).
            names = [m.name for m in mosfets]
            linear = np.array(
                [
                    [(ss.gds, ss.gm, ss.cgs, ss.cds) for ss in (
                        solution.op(name).small_signal for name in names
                    )]
                    for solution in solutions
                ],
                dtype=float,
            ).reshape(count, n_mos, 4).transpose(2, 1, 0)
            explicit = np.array(
                [[c.capacitors[e].capacitance for c in circuits] for e in range(len(capacitors))],
                dtype=float,
            ).reshape(len(capacitors), count)
            self.small_signal = np.ascontiguousarray(linear[:2].reshape(2 * n_mos, count))
            self.capacitance = np.concatenate(
                [explicit, linear[2:].transpose(1, 0, 2).reshape(2 * n_mos, count)]
            )

        # Residual value rows: gmin*v per node, resistor currents,
        # current-source values, drain currents, branch currents, companion
        # currents.  Node rows of f are sums; branch rows are assigned.
        self.f_raw = n + len(resistors) + len(isources) + n_mos + n_v + n_c
        self._f_gmin, self._f_res, self._f_isrc, self._f_ids, self._f_branch, self._f_cap = _slices(
            (n, len(resistors), len(isources), n_mos, n_v, n_c)
        )
        # Jacobian value rows: gds, gm and gm + gds per MOSFET, then the
        # companion conductance per capacitive element.
        self.j_raw = 3 * n_mos + n_c
        self._j_gds, self._j_gm, self._j_both, self._j_cap = _slices((n_mos, n_mos, n_mos, n_c))
        self._bases: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Compiled on first use
    # ------------------------------------------------------------------
    @cached_property
    def devices(self) -> DeviceArrays:
        """EKV parameters of every ``(MOSFET slot, candidate)`` instance."""
        circuits = self._circuits
        return DeviceArrays.from_instances(
            [(c.mosfets[k].tech, c.mosfets[k].width, c.mosfets[k].length)
             for k in range(self.n_mosfets) for c in circuits],
            (self.n_mosfets, len(circuits)),
        )

    @cached_property
    def f_sum(self) -> _Accumulation:
        """The residual's node rows."""
        terms = [(i, i, 1) for i in range(self.n_nodes)]
        for block, ends in (
            (self._f_res, self._res_ends),
            (self._f_isrc, self._isrc_ends),
            (self._f_ids, [(d, s) for d, _, s in self._mos_ends]),
            (self._f_branch, self._vsrc_ends),
            (self._f_cap, self._cap_ends),
        ):
            for k, (a, b) in enumerate(ends):
                terms += [(a, block.start + k, 1), (b, block.start + k, -1)]
        # Every node has its gmin term, so the sums cover exactly rows [0, n).
        return _Accumulation([t for t in terms if t[0] < self.size], self.f_raw, base=False)

    @cached_property
    def j_sum(self) -> _Accumulation:
        """The Jacobian entries MOSFETs and companion models touch."""
        size = self.size
        terms: list[tuple[int, int, int]] = []
        for k, (d, g, s) in enumerate(self._mos_ends):
            gds, gm, both = self._j_gds.start + k, self._j_gm.start + k, self._j_both.start + k
            if d < size:
                terms.append((d * size + d, gds, 1))
                if g < size:
                    terms.append((d * size + g, gm, 1))
                if s < size:
                    terms.append((d * size + s, both, -1))
            if s < size:
                terms.append((s * size + s, both, 1))
                if d < size:
                    terms.append((s * size + d, gds, -1))
                if g < size:
                    terms.append((s * size + g, gm, -1))
        for k, (a, b) in enumerate(self._cap_ends):
            terms += _admittance(a, b, size, self._j_cap.start + k)
        return _Accumulation(terms, self.j_raw, base=True)

    @cached_property
    def g_sum(self) -> _Accumulation:
        """The small-signal ``G`` entries MOSFETs touch, over the rows of
        :attr:`small_signal`: each MOSFET's ``gds`` admittance, then its
        ``gm`` VCCS from drain to source controlled by ``v(g) - v(s)``."""
        size, n_mos = self.size, self.n_mosfets
        terms: list[tuple[int, int, int]] = []
        for k, (d, g, s) in enumerate(self._mos_ends):
            terms += _admittance(d, s, size, k)
            gm = n_mos + k
            for out, out_sign in ((d, 1), (s, -1)):
                for ctrl, ctrl_sign in ((g, 1), (s, -1)):
                    if out < size and ctrl < size:
                        terms.append((out * size + ctrl, gm, out_sign * ctrl_sign))
        return _Accumulation(terms, 2 * n_mos, base=True)

    @cached_property
    def c_sum(self) -> _Accumulation:
        """The small-signal ``C`` entries over the rows of
        :attr:`capacitance`: the capacitors, then each MOSFET's ``Cds`` and
        ``Cgs``."""
        size, n_explicit = self.size, self.n_caps - 2 * self.n_mosfets
        terms: list[tuple[int, int, int]] = []
        for e, (a, b) in enumerate(self._cap_ends[:n_explicit]):
            terms += _admittance(a, b, size, e)
        for k, (d, g, s) in enumerate(self._mos_ends):
            terms += _admittance(d, s, size, n_explicit + 2 * k + 1)
            terms += _admittance(g, s, size, n_explicit + 2 * k)
        return _Accumulation(terms, self.n_caps, base=True)

    @cached_property
    def ac_rhs(self) -> np.ndarray:
        """The AC excitation, ``(size,)`` complex and shared by the group:
        each current source's ``ac`` leaves its positive node and enters its
        negative one, and each voltage source's ``ac`` drives its branch
        row."""
        size, n = self.size, self.n_nodes
        rhs = np.zeros(size, dtype=complex)
        for (pos, neg), ac in zip(self._isrc_ends, self._isource_ac[:, 0].tolist(), strict=True):
            if pos < size:
                rhs[pos] -= ac
            if neg < size:
                rhs[neg] += ac
        for k, ac in enumerate(self._vsource_ac[:, 0].tolist()):
            rhs[n + k] = ac
        return rhs

    # ------------------------------------------------------------------
    # Candidates
    # ------------------------------------------------------------------
    def take(self, columns: np.ndarray) -> StampPlan:
        """The plan of the candidates ``columns`` (structure data shared)."""
        subset = copy.copy(self)
        subset.devices = self.devices.take(columns)
        subset.vsource_dc = self.vsource_dc[:, columns]
        subset.capacitance = self.capacitance[:, columns]
        subset.small_signal = self.small_signal[:, columns]
        return subset

    def stepped(self, amplitude: float) -> StampPlan:
        """The plan after a source step at ``t = 0+``: every independent
        source at ``dc + amplitude * ac``.  Supplies and bias sources carry
        ``ac = 0`` and stay put; the OTA testbenches' stimulus sources
        (``ac = +-0.5`` on the differential inputs) step by their share of
        the amplitude."""
        stepped = copy.copy(self)
        stepped.vsource_dc = self.vsource_dc + amplitude * self._vsource_ac
        stepped._isource_dc = self._isource_dc + amplitude * self._isource_ac
        return stepped

    def workspace(self, batch: int) -> _Workspace:
        """Newton and assembly buffers for up to ``batch`` candidates."""
        return _Workspace(self, batch)

    def pack(
        self, voltages: Sequence[Mapping[str, float]], currents: Sequence[Mapping[str, float]]
    ) -> np.ndarray:
        """Padded ``(P, size + 1)`` unknowns from each candidate's node
        voltages and voltage-source branch currents, by name; an absent
        name reads 0."""
        x = np.zeros((len(voltages), self.size + 1))
        for row, node_voltages, source_currents in zip(x, voltages, currents, strict=True):
            row[: self.n_nodes] = [node_voltages.get(name, 0.0) for name in self.node_names]
            row[self.n_nodes : self.size] = [
                source_currents.get(name, 0.0) for name in self.vsource_names
            ]
        return x

    def unpack(self, x: np.ndarray) -> list[tuple[dict[str, float], dict[str, float]]]:
        """Each candidate's ``(node voltages, branch currents)`` by name,
        from ``(P, size)`` or padded unknowns."""
        n, size = self.n_nodes, self.size
        return [
            (
                dict(zip(self.node_names, row[:n], strict=True)),
                dict(zip(self.vsource_names, row[n:size], strict=True)),
            )
            for row in x.tolist()
        ]

    def start_points(self, guesses: Sequence[Mapping[str, float] | None]) -> np.ndarray:
        """Padded Newton starting points, one per candidate: every node at
        half the candidate's largest ``|dc|`` voltage source (0.5 V without
        one), a node that a grounded voltage source drives at that source's
        value, then the candidate's ``guesses`` by node name (ground is
        skipped; an unknown name raises ``KeyError``)."""
        n, size = self.n_nodes, self.size
        dc = self.vsource_dc
        x = np.zeros((dc.shape[1], size + 1))
        supply = np.max(np.abs(dc), axis=0) if self.n_vsources else np.ones(dc.shape[1])
        x[:, :n] = (supply / 2.0)[:, None]
        for k, (pos, neg) in enumerate(self._vsrc_ends):
            if pos < size and neg == size:
                x[:, pos] = dc[k]
            elif pos == size and neg < size:
                x[:, neg] = -dc[k]
        for row, guess in zip(x, guesses, strict=True):
            for name, value in (guess or {}).items():
                if name != GROUND:
                    row[self._index[name]] = value
        return x

    # ------------------------------------------------------------------
    # Terminal voltages
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _base(self, gmin: float) -> np.ndarray:
        """The constant ``(size, size)`` part of the Jacobian at ``gmin``, and
        at ``gmin = 0`` of ``G``: the gmin shunts and resistor stamps (added
        before any MOSFET term) and the voltage-source incidence entries
        (rows and columns no other element touches)."""
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
        return base.reshape(size, size)

    def _jacobian_base(self, gmin: float) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_base` and its values at the Jacobian accumulation's
        entries, cached per ``gmin``."""
        cached = self._bases.get(gmin)
        if cached is None:
            base = self._base(gmin)
            cached = self._bases[gmin] = (base, base.reshape(-1)[self.j_sum.targets, None])
        return cached

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
        shunt conductance at each node.  ``companion`` -- for a linearized
        plan -- is ``(g, v_prev, hist)``, each ``(n_caps, m)``: element
        ``e``'s companion current is ``g * (v - v_prev) - hist``.

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

        base, base_entries = self._jacobian_base(gmin)
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

    def small_signal_matrices(self) -> tuple[np.ndarray, np.ndarray]:  # checks: hot-path
        """Every candidate's small-signal ``G`` and ``C``, ``(P, size, size)``
        each, so that ``Y(jw) = G + jw C`` (a linearized plan only).

        ``G`` holds the resistors, the voltage-source incidence and each
        MOSFET's ``gds`` and ``gm`` VCCS; ``C`` the capacitors and each
        MOSFET's ``Cds`` and ``Cgs``.  Each candidate's matrices are bit for
        bit the scalar reference's stamps of that candidate alone.
        """
        size = self.size
        return (
            _fold(self.g_sum, self.small_signal, self._base(0.0)),
            _fold(self.c_sum, self.capacitance, np.zeros((size, size))),
        )


def _fold(table: _Accumulation, raw: np.ndarray, base: np.ndarray) -> np.ndarray:  # checks: hot-path
    """``(m, size, size)`` matrices: ``base`` everywhere, and ``table``'s
    entries folded over the ``(rows, m)`` values ``raw`` starting from
    ``base``."""
    count, m = raw.shape
    signed = np.empty((table.rows, m))
    signed[:count] = raw
    np.negative(raw, out=signed[count : 2 * count])
    signed[2 * count + 1 :] = base.reshape(-1)[table.targets, None]
    matrices = np.empty((m, *base.shape))
    matrices[...] = base
    folded = table(signed, np.empty((*table.table.shape, m)))
    matrices.reshape(m, -1)[:, table.targets] = folded.T
    return matrices


def _slices(lengths) -> list[slice]:
    """Consecutive slices of the given lengths."""
    bounds = list(accumulate(lengths, initial=0))
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:], strict=True)]


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
