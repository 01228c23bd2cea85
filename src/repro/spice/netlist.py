"""Circuit (netlist) representation for the SPICE substrate.

The paper's flow needs three simulator capabilities, all provided by this
package against this :class:`Circuit` container:

* a nonlinear DC operating-point solve (:mod:`repro.spice.dc`),
* a small-signal AC analysis (:mod:`repro.spice.ac`), and
* DC sweeps for LUT characterization and ICMR extraction
  (:mod:`repro.spice.sweep`).

Supported elements are exactly what the three OTA topologies and the LUT
characterization bench require: MOSFETs, resistors, capacitors, independent
voltage sources (with optional AC magnitude) and independent current
sources.  Node ``"0"`` (alias ``"gnd"``) is ground.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..devices import MOSFET, Corner, TechParams

__all__ = ["Circuit", "Resistor", "Capacitor", "VSource", "ISource", "GROUND"]

GROUND = "0"
_GROUND_ALIASES = frozenset({"0", "gnd", "GND", "vss", "VSS"})


def canonical_node(name: str) -> str:
    """Normalize ground aliases to :data:`GROUND`; other names unchanged."""
    return GROUND if name in _GROUND_ALIASES else name


@dataclass
class Resistor:
    """Linear resistor between ``node1`` and ``node2``."""

    name: str
    node1: str
    node2: str
    resistance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise ValueError(f"{self.name}: resistance must be positive")
        self.node1 = canonical_node(self.node1)
        self.node2 = canonical_node(self.node2)

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance


@dataclass
class Capacitor:
    """Linear capacitor between ``node1`` and ``node2`` (open in DC)."""

    name: str
    node1: str
    node2: str
    capacitance: float

    def __post_init__(self) -> None:
        if self.capacitance < 0:
            raise ValueError(f"{self.name}: capacitance must be non-negative")
        self.node1 = canonical_node(self.node1)
        self.node2 = canonical_node(self.node2)


@dataclass
class VSource:
    """Independent voltage source from ``pos`` to ``neg``.

    ``dc`` is the operating-point value; ``ac`` the small-signal magnitude
    used by the AC analysis (0 for supplies and bias sources, nonzero for
    the stimulus).
    """

    name: str
    pos: str
    neg: str
    dc: float
    ac: float = 0.0

    def __post_init__(self) -> None:
        self.pos = canonical_node(self.pos)
        self.neg = canonical_node(self.neg)


@dataclass
class ISource:
    """Independent current source pushing ``dc`` amps from ``pos`` to ``neg``
    through the source (i.e. pulling current out of node ``pos``)."""

    name: str
    pos: str
    neg: str
    dc: float
    ac: float = 0.0

    def __post_init__(self) -> None:
        self.pos = canonical_node(self.pos)
        self.neg = canonical_node(self.neg)


@dataclass
class Circuit:
    """A flat netlist: nodes are referenced by name, ground is ``"0"``."""

    name: str = "circuit"
    mosfets: list[MOSFET] = field(default_factory=list)
    resistors: list[Resistor] = field(default_factory=list)
    capacitors: list[Capacitor] = field(default_factory=list)
    vsources: list[VSource] = field(default_factory=list)
    isources: list[ISource] = field(default_factory=list)
    #: PVT corner this netlist was built at (``None`` = nominal); metadata
    #: only — the elements already carry the corner-skewed values.  Set by
    #: ``OTATopology.build_circuit`` and surfaced in the SPICE export header.
    corner: Corner | None = None

    # ------------------------------------------------------------------
    # Element construction helpers
    # ------------------------------------------------------------------
    def add_mosfet(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        tech: TechParams,
        width: float,
        length: float,
    ) -> MOSFET:
        """Create, register and return a MOSFET instance."""
        self._check_unique(name)
        device = MOSFET(
            name=name,
            drain=canonical_node(drain),
            gate=canonical_node(gate),
            source=canonical_node(source),
            tech=tech,
            width=width,
            length=length,
        )
        self.mosfets.append(device)
        return device

    def add_resistor(self, name: str, node1: str, node2: str, resistance: float) -> Resistor:
        self._check_unique(name)
        element = Resistor(name, node1, node2, resistance)
        self.resistors.append(element)
        return element

    def add_capacitor(self, name: str, node1: str, node2: str, capacitance: float) -> Capacitor:
        self._check_unique(name)
        element = Capacitor(name, node1, node2, capacitance)
        self.capacitors.append(element)
        return element

    def add_vsource(
        self, name: str, pos: str, neg: str, dc: float, ac: float = 0.0
    ) -> VSource:
        self._check_unique(name)
        element = VSource(name, pos, neg, dc, ac)
        self.vsources.append(element)
        return element

    def add_isource(
        self, name: str, pos: str, neg: str, dc: float, ac: float = 0.0
    ) -> ISource:
        self._check_unique(name)
        element = ISource(name, pos, neg, dc, ac)
        self.isources.append(element)
        return element

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def element_names(self) -> set[str]:
        names: set[str] = set()
        for group in (
            self.mosfets,
            self.resistors,
            self.capacitors,
            self.vsources,
            self.isources,
        ):
            names.update(element.name for element in group)
        return names

    def _check_unique(self, name: str) -> None:
        if name in self.element_names():
            raise ValueError(f"duplicate element name {name!r} in circuit {self.name!r}")

    def nodes(self) -> list[str]:
        """All non-ground node names, in deterministic (insertion) order."""
        seen: dict[str, None] = {}

        def visit(node: str) -> None:
            if node != GROUND and node not in seen:
                seen[node] = None

        for mosfet in self.mosfets:
            for node in (mosfet.drain, mosfet.gate, mosfet.source):
                visit(node)
        for res in self.resistors:
            visit(res.node1)
            visit(res.node2)
        for cap in self.capacitors:
            visit(cap.node1)
            visit(cap.node2)
        for src in self.vsources:
            visit(src.pos)
            visit(src.neg)
        for src in self.isources:
            visit(src.pos)
            visit(src.neg)
        return list(seen)

    def mosfet(self, name: str) -> MOSFET:
        """Look up a MOSFET by name."""
        for device in self.mosfets:
            if device.name == name:
                return device
        raise KeyError(f"no MOSFET named {name!r} in circuit {self.name!r}")

    def vsource(self, name: str) -> VSource:
        """Look up a voltage source by name."""
        for source in self.vsources:
            if source.name == name:
                return source
        raise KeyError(f"no voltage source named {name!r} in circuit {self.name!r}")

    def set_widths(self, widths: dict[str, float]) -> None:
        """Update device widths in place (used by sweeps and optimizers)."""
        for device in self.mosfets:
            if device.name in widths:
                new_width = widths[device.name]
                if new_width <= 0:
                    raise ValueError(
                        f"{device.name}: width must be positive, got {new_width}"
                    )
                device.width = new_width

    def copy(self) -> Circuit:
        """Deep-enough copy: shared immutable tech params, fresh elements.

        The element names are already unique, so the copy rebuilds each
        element from its fields without the per-element name check.
        """
        return Circuit(
            name=self.name,
            mosfets=[replace(m) for m in self.mosfets],
            resistors=[replace(r) for r in self.resistors],
            capacitors=[replace(c) for c in self.capacitors],
            vsources=[replace(v) for v in self.vsources],
            isources=[replace(i) for i in self.isources],
            corner=self.corner,
        )
