"""repro: reproduction of "Accelerating OTA Circuit Design: Transistor
Sizing Based on a Transformer Model and Precomputed Lookup Tables"
(DATE 2025).

Subpackages
-----------
``devices``
    EKV-style MOSFET compact model (the foundry-model substitute).
``spice``
    From-scratch SPICE substrate: nonlinear DC (Newton on MNA), small-signal
    AC analysis, metric extraction, characterization/ICMR sweeps.
``dpsfg``
    Driving-point signal flow graphs: construction from netlists, path and
    cycle enumeration, Mason's gain formula, Fig. 4 sequence serialization.
``nlp``
    Engineering-notation formatting, character-level tokenization and the
    paper's restricted byte-pair encoding.
``transformer``
    From-scratch numpy encoder-decoder transformer with full backprop,
    weighted cross-entropy, Adam, and KV-cached greedy decoding.
``lut``
    Precomputed per-unit-width lookup tables and the gm/Id width estimator
    (Algorithm 1).
``topologies``
    The 5T-OTA / CM-OTA / 2S-OTA netlist generators of the paper, the
    larger folded-cascode (FC-OTA) and telescopic (TELE-OTA) OTAs, and the
    active-inductor example circuit.
``datagen``
    Dataset generation (sampling, region/ICMR filters) and sequence-pair
    corpus assembly.
``core``
    The trained sizing model, training pipeline, margin allocation and
    evaluation utilities.
``solvers``
    The unified solver API: the SA/PSO/DE baselines behind one
    registry-dispatched ``Solver`` protocol, measuring through one
    evaluation-backend method, ``EvalBackend.measure_sweeps``.
``service``
    The batched request/response sizing engine (Stages I-IV of the flow),
    the one place the transformer copilot runs; it also dispatches the
    solvers by name.  JSON-serializable requests, one response per
    request (carrying its copilot iteration trace in-process) and the
    ``python -m repro`` CLI.
``serve``
    The HTTP serving layer: micro-batching, backpressure and deadlines in
    front of the engine (``python -m repro serve``).
``shard``
    Multiprocess sharded serving over spawn-based workers that each load
    the saved model bundle, keep their own result LRU and run a share of
    the host's BLAS threads (``python -m repro serve --workers N``).
``checks``
    The project's static analyzer (``python -m repro.checks``): lock,
    fork-safety, hot-loop, wire-format, RNG and JSON rules.
"""

__version__ = "1.3.0"

from . import solvers
from .core import DesignSpec, SizingModel, train_sizing_model
from .service import SizingEngine, SizingRequest, SizingResponse
from .topologies import (
    CurrentMirrorOTA,
    FiveTransistorOTA,
    TwoStageOTA,
    available_topologies,
    register,
    topology_by_name,
)

__all__ = [
    "solvers",
    "DesignSpec",
    "SizingModel",
    "train_sizing_model",
    "SizingEngine",
    "SizingRequest",
    "SizingResponse",
    "CurrentMirrorOTA",
    "FiveTransistorOTA",
    "TwoStageOTA",
    "available_topologies",
    "register",
    "topology_by_name",
    "__version__",
]
