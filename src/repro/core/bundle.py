"""The trained sizing model bundle: transformer + tokenizer + LUTs.

Everything the inference path needs, packaged for persistence: after the
one-time training phase the bundle is saved to a directory and reloaded for
sizing sessions, mirroring the paper's deployment model (all SPICE cost in
training; inference uses only the transformer and the precomputed LUTs).
A sharded server's workers each reload the bundle from that directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..datagen.dataset import TokenizedCorpus
from ..datagen.serialize import ParsedParams, SequenceBuilder, SequenceConfig, SequenceFormat
from ..lut import LookupTable
from ..nlp import RestrictedBPE, Vocabulary
from ..topologies import OTATopology, topology_by_name
from ..transformer import Transformer
from .specs import DesignSpec

__all__ = ["SizingModel"]


@dataclass
class SizingModel:  # checks: process-shared
    """Trained artifacts of Stages I-III.

    Marked ``process-shared``: a shard-worker factory may carry a model
    across the spawn boundary (a ``partial`` over one pickles it whole),
    so the fork-safety rule keeps it (transitively) free of locks,
    threads, files, and bound callables.  The production pool pickles
    only the bundle path; each worker calls :meth:`load` itself.
    """

    transformer: Transformer
    bpe: RestrictedBPE
    vocab: Vocabulary
    sequence_config: SequenceConfig
    builders: dict[str, SequenceBuilder]
    luts: dict[str, LookupTable]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_corpus(
        cls,
        transformer: Transformer,
        corpus: TokenizedCorpus,
        luts: dict[str, LookupTable],
    ) -> SizingModel:
        any_builder = next(iter(corpus.builders.values()))
        return cls(
            transformer=transformer,
            bpe=corpus.bpe,
            vocab=corpus.vocab,
            sequence_config=any_builder.config,
            builders=dict(corpus.builders),
            luts=luts,
        )

    def builder(self, topology_name: str) -> SequenceBuilder:
        """The sequence builder of a topology this model was trained on
        (``KeyError`` for any other: the model never saw its sequences)."""
        if topology_name not in self.builders:
            raise KeyError(
                f"topology {topology_name!r} is not in this model bundle "
                f"(trained: {', '.join(sorted(self.builders))})"
            )
        return self.builders[topology_name]

    def lut_for(self, topology: OTATopology, group_name: str) -> LookupTable:
        tech = topology.group(group_name).tech
        if tech.name not in self.luts:
            raise KeyError(f"no LUT for technology {tech.name!r}")
        return self.luts[tech.name]

    # ------------------------------------------------------------------
    # Inference (Stages I + II)
    # ------------------------------------------------------------------
    def predict_params(
        self, topology_name: str, spec: DesignSpec, max_len: int | None = None
    ) -> tuple[ParsedParams, str]:
        """Specs -> encoder sequence -> transformer -> parsed parameters.

        Returns the parsed per-device parameters and the raw decoded text
        (useful for inspection and failure analysis).  A one-spec call of
        :meth:`predict_params_many`: a single row has no padding.
        """
        return self.predict_params_many({topology_name: [spec]}, max_len)[topology_name][0]

    def predict_params_many(
        self,
        specs_by_topology: dict[str, list[DesignSpec]],
        max_len: int | None = None,
    ) -> dict[str, list[tuple[ParsedParams, str]]]:
        """Cross-topology batched inference: one decode for everything.

        One transformer serves every topology, so specs of *different*
        topologies can share a single greedy decode — only the encoder
        texts and the output parsers differ per topology.  Rows do not
        interact (each source is encoded at its own length, each row stops
        at its own EOS), and the parity tests find each decoded text equal
        to the single-spec path's.  That equality is measured on NumPy's
        BLAS, not guaranteed: a BLAS that rounds one-row and multi-row
        products differently could flip a near-tie argmax.
        """
        sources: list[list[int]] = []
        for name, specs in specs_by_topology.items():
            builder = self.builder(name)
            sources.extend(
                self.vocab.encode(
                    self.bpe.encode(builder.encoder_text(s.gain_db, s.f3db_hz, s.ugf_hz))
                )
                for s in specs
            )
        results: dict[str, list[tuple[ParsedParams, str]]] = {
            name: [] for name in specs_by_topology
        }
        if not sources:
            return results
        longest = max(len(ids) for ids in sources)
        pad_id = self.vocab.pad_id
        src = np.full((len(sources), longest), pad_id, dtype=np.int64)
        src_pad = np.ones((len(sources), longest), dtype=bool)
        for row, ids in enumerate(sources):
            src[row, : len(ids)] = ids
            src_pad[row, : len(ids)] = False
        decoded = self.transformer.greedy_decode(
            src, src_pad, self.vocab.bos_id, self.vocab.eos_id, max_len=max_len
        )
        cursor = 0
        for name, specs in specs_by_topology.items():
            builder = self.builder(name)
            for ids in decoded[cursor : cursor + len(specs)]:
                text = self.vocab.decode_to_text(ids)
                results[name].append((builder.parse_decoder_text(text), text))
            cursor += len(specs)
        return results

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> None:
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        self.transformer.save(path / "transformer.npz")
        meta = {
            "merges": [list(pair) for pair in self.bpe.merges],
            "num_merges": self.bpe.num_merges,
            "vocab": self.vocab.id_to_token,
            "sequence_config": {
                "decoder_format": self.sequence_config.decoder_format.value,
                "encoder_max_paths": self.sequence_config.encoder_max_paths,
                "specs_per_path": self.sequence_config.specs_per_path,
                "include_paths_in_encoder": self.sequence_config.include_paths_in_encoder,
            },
            "topologies": sorted(self.builders),
            "luts": sorted(self.luts),
        }
        (path / "bundle.json").write_text(json.dumps(meta, allow_nan=False))
        for tech_name, lut in self.luts.items():
            lut.save(path / f"lut_{tech_name}.npz")

    @classmethod
    def load(cls, directory: str | Path) -> SizingModel:
        path = Path(directory)
        meta = json.loads((path / "bundle.json").read_text())
        transformer = Transformer.load(path / "transformer.npz")

        bpe = RestrictedBPE.from_merges(meta["merges"], num_merges=meta["num_merges"])

        vocab = Vocabulary()
        for token in meta["vocab"]:
            vocab.add(token)

        config_meta = meta["sequence_config"]
        sequence_config = SequenceConfig(
            decoder_format=SequenceFormat(config_meta["decoder_format"]),
            encoder_max_paths=config_meta["encoder_max_paths"],
            specs_per_path=config_meta["specs_per_path"],
            include_paths_in_encoder=config_meta["include_paths_in_encoder"],
        )
        builders = {
            name: SequenceBuilder(topology_by_name(name), sequence_config)
            for name in meta["topologies"]
        }
        luts = {
            tech_name: LookupTable.load(path / f"lut_{tech_name}.npz")
            for tech_name in meta["luts"]
        }
        return cls(
            transformer=transformer,
            bpe=bpe,
            vocab=vocab,
            sequence_config=sequence_config,
            builders=builders,
            luts=luts,
        )
