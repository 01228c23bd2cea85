"""OTA topologies of Fig. 6, larger cascode OTAs, and the Fig. 2 example.

Topologies self-register with the pluggable registry (see
:mod:`repro.topologies.registry`); importing this package registers the
three paper circuits plus the folded-cascode and telescopic OTAs (larger
MNA systems than any paper circuit).  New circuits only need a ``@register``
decorator — no dispatch table to edit.
"""

from .active_inductor import build_active_inductor
from .base import (
    DEFAULT_ANALYSES,
    TRAN_ANALYSES,
    CornerSweep,
    DeviceGroup,
    MeasureOutcome,
    MeasurementResult,
    OTATopology,
    analyses_for_spec,
    resolve_analyses,
)
from .current_mirror import CurrentMirrorOTA
from .five_t import FiveTransistorOTA
from .folded_cascode import FoldedCascodeOTA
from .registry import (
    available_topologies,
    register,
    topology_by_name,
    topology_factory,
    unregister,
)
from .telescopic import TelescopicOTA
from .two_stage import TwoStageOTA

__all__ = [
    "build_active_inductor",
    "resolve_analyses",
    "analyses_for_spec",
    "DEFAULT_ANALYSES",
    "TRAN_ANALYSES",
    "CornerSweep",
    "DeviceGroup",
    "MeasureOutcome",
    "MeasurementResult",
    "OTATopology",
    "CurrentMirrorOTA",
    "FiveTransistorOTA",
    "FoldedCascodeOTA",
    "TelescopicOTA",
    "TwoStageOTA",
    "ALL_TOPOLOGIES",
    "available_topologies",
    "register",
    "topology_by_name",
    "topology_factory",
    "unregister",
]

#: Factory classes for the three studied topologies, in paper order
#: (kept for back-compat; the registry is the source of truth).
ALL_TOPOLOGIES = (FiveTransistorOTA, CurrentMirrorOTA, TwoStageOTA)
