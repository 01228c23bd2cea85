"""EKV-style long-channel MOSFET compact model.

This is the device substrate that replaces the foundry SPICE models used in
the paper.  It provides the five quantities the paper's precomputed lookup
table stores per unit width::

    [Id  gm  gds  Cds  Cgs] = f(Vgs, Vds)

The model is the classic EKV long-channel formulation (Enz-Krummenacher-
Vittoz) with a first-order channel-length-modulation term:

* normalized forward/reverse currents ``i_f = F((Vp - Vs)/Ut)`` and
  ``i_r = F((Vp - Vd)/Ut)`` with the interpolation function
  ``F(v) = ln^2(1 + e^(v/2))``, which is smooth and accurate from weak to
  strong inversion;
* pinch-off voltage ``Vp = (Vgs - Vt0) / n``;
* drain current ``Id = Ispec (i_f - i_r) clm(Vds)`` with
  ``Ispec = 2 n kp (W/L) Ut^2`` and the channel-length-modulation factor
  ``clm(Vds) = 1 + lambda * Ut * softplus(Vds/Ut)``.  The softplus form
  equals the familiar ``1 + lambda Vds`` for ``Vds >> Ut`` but stays
  positive and smooth for the negative-``Vds`` excursions Newton iterations
  take, which matters because short-channel 65 nm devices need a large
  ``lambda`` (~1/V) to reproduce the paper's low intrinsic gains.

Because ``Ispec`` is proportional to ``W`` and the capacitance terms are
built from per-width constants, every output scales linearly in width --
the property that lets the paper characterize a single reference width
(700 nm) and ratio against it (gm/Id methodology).

All functions are vectorized over numpy arrays.  Voltages are
polarity-normalized: pass ``Vgs, Vds >= 0`` for normal operation of both
NMOS and PMOS; the circuit-level wrapper in :mod:`repro.devices.mosfet`
performs the polarity mapping.

:class:`EKVModel` evaluates one technology parameter set.  The batched MNA
kernels instead evaluate a whole grid of device instances -- one row per
MOSFET slot, one column per candidate circuit, each with its own
(corner-skewed) technology and width -- through :class:`DeviceArrays` and
two fused functions: :func:`stamp_terms` returns ``(Id, gm, gds)`` for a
Newton iteration and :func:`operating_point_arrays` every operating-point
quantity of a converged solve.  Both are bit for bit the per-instance
:class:`EKVModel` results (the parity tests pin this); they only share the
subexpressions the three methods each recompute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import TechParams

__all__ = [
    "DeviceArrays",
    "EKVModel",
    "SmallSignal",
    "interp_f",
    "interp_f_prime",
    "operating_point_arrays",
    "stamp_terms",
]

ArrayLike = float | np.ndarray


def interp_f(v: ArrayLike) -> np.ndarray:
    """EKV interpolation function ``F(v) = ln^2(1 + exp(v/2))``.

    Smoothly interpolates between weak inversion (``F ~ e^v``) and strong
    inversion (``F ~ (v/2)^2``).  Implemented with ``logaddexp`` for
    numerical stability at large ``|v|``.
    """
    half = np.asarray(v, dtype=float) / 2.0
    log_term = np.logaddexp(0.0, half)
    return log_term * log_term


def interp_f_prime(v: ArrayLike) -> np.ndarray:
    """Derivative ``dF/dv = sqrt(F(v)) * sigmoid(v/2)`` of :func:`interp_f`."""
    half = np.asarray(v, dtype=float) / 2.0
    log_term = np.logaddexp(0.0, half)
    # sigmoid(half) computed stably through exp of the negative branch.
    sigmoid = np.exp(half - np.logaddexp(0.0, half))
    return log_term * sigmoid


@dataclass(frozen=True)
class SmallSignal:
    """Operating-point small-signal parameters of one device.

    All values are in SI units and refer to the device's own orientation
    (polarity-normalized); currents and conductances are non-negative in
    normal operation.
    """

    id: float
    gm: float
    gds: float
    cgs: float
    cds: float

    def as_array(self) -> np.ndarray:
        """Return ``[Id, gm, gds, Cds, Cgs]`` in the paper's LUT ordering."""
        return np.array([self.id, self.gm, self.gds, self.cds, self.cgs])


class EKVModel:
    """Evaluator for the EKV-style model over a :class:`TechParams` set."""

    #: Ordering of the vector-valued LUT outputs, matching Eq. (3).
    OUTPUT_NAMES = ("id", "gm", "gds", "cds", "cgs")

    def __init__(self, tech: TechParams):
        self.tech = tech

    # ------------------------------------------------------------------
    # Core current model
    # ------------------------------------------------------------------
    def _normalized_currents(
        self, vgs: ArrayLike, vds: ArrayLike
    ) -> tuple[np.ndarray, np.ndarray]:
        """Forward and reverse normalized currents ``(i_f, i_r)``."""
        tech = self.tech
        vp = (np.asarray(vgs, dtype=float) - tech.vt0) / tech.n_slope
        i_f = interp_f(vp / tech.ut)
        i_r = interp_f((vp - np.asarray(vds, dtype=float)) / tech.ut)
        return i_f, i_r

    def _clm(self, length: float) -> float:
        """Effective channel-length-modulation coefficient (1/V)."""
        return self.tech.lambda_l / length

    def _clm_factor(
        self, vds: ArrayLike, length: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """CLM factor ``1 + lambda*Ut*softplus(Vds/Ut)`` and its d/dVds."""
        ut = self.tech.ut
        lam = self._clm(length)
        v = np.asarray(vds, dtype=float) / ut
        softplus = np.logaddexp(0.0, v)
        sigmoid = np.exp(v - np.logaddexp(0.0, v))
        return 1.0 + lam * ut * softplus, lam * sigmoid

    def drain_current(
        self, vgs: ArrayLike, vds: ArrayLike, width: float, length: float
    ) -> np.ndarray:
        """Drain current ``Id`` (A) in polarity-normalized orientation.

        Positive for ``vds > 0`` in normal operation; the EKV formulation is
        source/drain symmetric, so negative ``vds`` yields a negative current
        (reverse conduction), which keeps Newton iterations well behaved.
        """
        i_f, i_r = self._normalized_currents(vgs, vds)
        ispec = self.tech.spec_current(width, length)
        clm, _ = self._clm_factor(vds, length)
        return ispec * (i_f - i_r) * clm

    def inversion_coefficient(
        self, vgs: ArrayLike, vds: ArrayLike
    ) -> np.ndarray:
        """Inversion coefficient ``IC = i_f`` (width independent).

        ``IC < 1`` indicates weak inversion, ``1 <= IC <= 10`` moderate, and
        ``IC > 10`` strong inversion; the paper's data generation enforces
        weak inversion for differential pairs and strong inversion for
        current mirrors.
        """
        i_f, _ = self._normalized_currents(vgs, vds)
        return i_f

    # ------------------------------------------------------------------
    # Small-signal conductances
    # ------------------------------------------------------------------
    def transconductance(
        self, vgs: ArrayLike, vds: ArrayLike, width: float, length: float
    ) -> np.ndarray:
        """Gate transconductance ``gm = dId/dVgs`` (S)."""
        tech = self.tech
        vp = (np.asarray(vgs, dtype=float) - tech.vt0) / tech.n_slope
        vds_arr = np.asarray(vds, dtype=float)
        dif = interp_f_prime(vp / tech.ut)
        dir_ = interp_f_prime((vp - vds_arr) / tech.ut)
        ispec = tech.spec_current(width, length)
        clm, _ = self._clm_factor(vds_arr, length)
        return ispec * (dif - dir_) * clm / (tech.n_slope * tech.ut)

    def output_conductance(
        self, vgs: ArrayLike, vds: ArrayLike, width: float, length: float
    ) -> np.ndarray:
        """Output conductance ``gds = dId/dVds`` (S)."""
        tech = self.tech
        vp = (np.asarray(vgs, dtype=float) - tech.vt0) / tech.n_slope
        vds_arr = np.asarray(vds, dtype=float)
        i_f, i_r = self._normalized_currents(vgs, vds)
        dir_ = interp_f_prime((vp - vds_arr) / tech.ut)
        ispec = tech.spec_current(width, length)
        clm, dclm = self._clm_factor(vds_arr, length)
        channel_term = ispec * dir_ * clm / tech.ut
        clm_term = ispec * (i_f - i_r) * dclm
        return channel_term + clm_term

    # ------------------------------------------------------------------
    # Capacitances
    # ------------------------------------------------------------------
    def gate_source_capacitance(
        self, vgs: ArrayLike, vds: ArrayLike, width: float, length: float
    ) -> np.ndarray:
        """Gate-source capacitance ``Cgs`` (F).

        Sum of the constant overlap term ``W * cov`` and an intrinsic channel
        term that rises smoothly from ~0 in weak inversion to the saturation
        value ``(2/3) Cox W L`` in strong inversion, gated by the inversion
        coefficient.  Linear in ``W`` by construction.
        """
        tech = self.tech
        ic = self.inversion_coefficient(vgs, vds)
        occupancy = ic / (ic + 2.0)
        intrinsic = (2.0 / 3.0) * tech.cox * width * length * occupancy
        overlap = tech.cov * width
        return intrinsic + overlap

    def drain_source_capacitance(
        self, vgs: ArrayLike, vds: ArrayLike, width: float, length: float
    ) -> np.ndarray:
        """Drain-source (junction) capacitance ``Cds`` (F).

        Modeled as the reverse-biased drain junction capacitance per unit
        width with the standard grading law ``cj / (1 + Vds/pb)^mj``; the
        junction never forward-biases in normal operation, and the expression
        is clamped at ``Vds = -pb/2`` so Newton excursions stay finite.
        """
        tech = self.tech
        vds_arr = np.asarray(vds, dtype=float)
        bias = np.maximum(1.0 + vds_arr / tech.pb, 0.5)
        ignored = np.asarray(vgs, dtype=float)  # Cds is Vgs independent here.
        del ignored
        return tech.cj * width / bias**tech.mj

    # ------------------------------------------------------------------
    # Bundles
    # ------------------------------------------------------------------
    def evaluate_all(
        self, vgs: ArrayLike, vds: ArrayLike, width: float, length: float
    ) -> dict[str, np.ndarray]:
        """Evaluate all five LUT outputs at once.

        Returns a dict keyed by :attr:`OUTPUT_NAMES` with numpy arrays all
        broadcast to the common ``vgs``/``vds`` shape, in the paper's
        Eq. (3) ordering semantics.  (Individually, ``Cds`` depends only on
        ``Vds`` and the ``Cgs`` inversion term only on ``Vgs``; the
        broadcast hides that asymmetry from table-building callers.)
        """
        values = {
            "id": self.drain_current(vgs, vds, width, length),
            "gm": self.transconductance(vgs, vds, width, length),
            "gds": self.output_conductance(vgs, vds, width, length),
            "cds": self.drain_source_capacitance(vgs, vds, width, length),
            "cgs": self.gate_source_capacitance(vgs, vds, width, length),
        }
        shape = np.broadcast_shapes(*(np.shape(v) for v in values.values()))
        return {name: np.broadcast_to(v, shape).copy() for name, v in values.items()}

    def small_signal(
        self, vgs: float, vds: float, width: float, length: float
    ) -> SmallSignal:
        """Scalar operating-point bundle for circuit linearization."""
        values = self.evaluate_all(vgs, vds, width, length)
        return SmallSignal(
            id=float(values["id"]),
            gm=float(values["gm"]),
            gds=float(values["gds"]),
            cgs=float(values["cgs"]),
            cds=float(values["cds"]),
        )

    def saturation_voltage(self, vgs: ArrayLike) -> np.ndarray:
        """Approximate ``Vds,sat`` for a region-of-operation check.

        Uses the EKV estimate ``Vds,sat ~= Ut * (2 sqrt(IC) + 4)`` with the
        inversion coefficient evaluated in saturation, which degrades
        gracefully into weak inversion (~4 Ut) and matches the strong
        inversion overdrive asymptotically.
        """
        tech = self.tech
        vp = (np.asarray(vgs, dtype=float) - tech.vt0) / tech.n_slope
        ic = interp_f(vp / tech.ut)
        return tech.ut * (2.0 * np.sqrt(ic) + 4.0)

    def is_saturated(
        self, vgs: ArrayLike, vds: ArrayLike, margin: float = 0.0
    ) -> np.ndarray:
        """Elementwise saturation check ``Vds >= Vds,sat + margin``."""
        return np.asarray(vds, dtype=float) >= self.saturation_voltage(vgs) + margin


class DeviceArrays:
    """EKV parameters of a grid of device instances, for the fused kernels.

    Every field is an array over the grid (the MNA kernels use one row per
    MOSFET slot and one column per candidate), stored as one plane of
    ``values`` so that :meth:`take` gathers all of them at once.  Each
    entry is computed with the scalar model's own arithmetic on that
    instance's :class:`TechParams`, width and length: ``ispec`` is
    :meth:`TechParams.spec_current`, ``lam`` is ``lambda_l / L``,
    ``lam_ut`` is ``lam * ut`` and ``n_ut`` is ``n_slope * ut`` -- the
    subexpressions every :class:`EKVModel` call recomputes, here computed
    once per batch.
    """

    FIELDS = (
        "vt0", "n_slope", "ut", "ispec", "lam", "lam_ut", "n_ut",
        "width", "length", "cox", "cov", "cj", "pb", "mj",
    )

    __slots__ = ("values", *FIELDS)

    def __init__(self, values: np.ndarray):
        self.values = values
        for plane, name in zip(values, self.FIELDS, strict=True):
            setattr(self, name, plane)

    @classmethod
    def from_instances(cls, instances, shape: tuple[int, ...]) -> DeviceArrays:
        """Build from ``(tech, width, length)`` triples listed in C order
        of the grid ``shape``."""
        values = np.array([_instance_values(*instance) for instance in instances], dtype=float)
        values = values.reshape(*shape, len(cls.FIELDS))
        return cls(np.ascontiguousarray(np.moveaxis(values, -1, 0)))

    def take(self, columns: np.ndarray) -> DeviceArrays:
        """The instances of the given columns (the grid's last axis)."""
        return DeviceArrays(np.take(self.values, columns, axis=-1))


def _instance_values(tech: TechParams, width: float, length: float) -> tuple[float, ...]:
    """One instance's :attr:`DeviceArrays.FIELDS`, in that order."""
    lam = tech.lambda_l / length
    return (
        tech.vt0,
        tech.n_slope,
        tech.ut,
        tech.spec_current(width, length),
        lam,
        lam * tech.ut,
        tech.n_slope * tech.ut,
        width,
        length,
        tech.cox,
        tech.cov,
        tech.cj,
        tech.pb,
        tech.mj,
    )


def stamp_terms(
    vgs: np.ndarray, vds: np.ndarray, devices: DeviceArrays
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused ``(Id, gm, gds)`` of every instance in ``devices``.

    ``vgs``/``vds`` are polarity-normalized and shaped like the grid.  The
    result is bit for bit what :meth:`EKVModel.drain_current`,
    :meth:`~EKVModel.transconductance` and
    :meth:`~EKVModel.output_conductance` return for each instance: the
    same operations in the same order, with the pinch-off voltage, the
    ``logaddexp`` terms of :func:`interp_f`/:func:`interp_f_prime`, the
    CLM factor and ``Ispec`` evaluated once instead of once per method.
    """
    ut = devices.ut
    vp = (vgs - devices.vt0) / devices.n_slope
    half_f = vp / ut / 2.0
    half_r = (vp - vds) / ut / 2.0
    log_f = np.logaddexp(0.0, half_f)
    log_r = np.logaddexp(0.0, half_r)
    d_if = log_f * np.exp(half_f - log_f)
    d_ir = log_r * np.exp(half_r - log_r)
    v = vds / ut
    softplus = np.logaddexp(0.0, v)
    clm = 1.0 + devices.lam_ut * softplus
    dclm = devices.lam * np.exp(v - softplus)
    ispec = devices.ispec
    channel = ispec * (log_f * log_f - log_r * log_r)
    drain_current = channel * clm
    gm = ispec * (d_if - d_ir) * clm / devices.n_ut
    gds = ispec * d_ir * clm / ut + channel * dclm
    return drain_current, gm, gds


def operating_point_arrays(
    vgs: np.ndarray, vds: np.ndarray, devices: DeviceArrays
) -> dict[str, np.ndarray]:
    """Every operating-point quantity of every instance in ``devices``.

    Returns arrays keyed ``id``/``gm``/``gds``/``cgs``/``cds`` (as
    :meth:`EKVModel.evaluate_all`), ``ic`` (:meth:`EKVModel.inversion_coefficient`)
    and ``saturated`` (:meth:`EKVModel.is_saturated` at zero margin), bit
    for bit the per-instance scalar results.  The scalar ``Cds`` raises a
    numpy *scalar* to the power ``mj``, which runs the C library's ``pow``;
    numpy's array power rounds differently in the last bit for some
    inputs, so that one power is taken per element here as well.
    """
    drain_current, gm, gds = stamp_terms(vgs, vds, devices)
    ic = interp_f((vgs - devices.vt0) / devices.n_slope / devices.ut)
    width = devices.width
    cgs = (2.0 / 3.0) * devices.cox * width * devices.length * (ic / (ic + 2.0)) + devices.cov * width
    bias = np.maximum(1.0 + vds / devices.pb, 0.5)
    power = [b**mj for b, mj in zip(bias.ravel().tolist(), devices.mj.ravel().tolist())]
    cds = devices.cj * width / np.array(power, dtype=float).reshape(bias.shape)
    vsat = devices.ut * (2.0 * np.sqrt(ic) + 4.0)
    return {
        "id": drain_current,
        "gm": gm,
        "gds": gds,
        "cgs": cgs,
        "cds": cds,
        "ic": ic,
        "saturated": vds >= vsat + 0.0,
    }
