"""The encoder-decoder transformer (Sec. III-C, Fig. 1).

Architecture-faithful to the paper: token embeddings scaled by
``sqrt(d_model)`` plus sinusoidal positional encodings feed ``N`` stacked
encoder blocks and ``N`` decoder blocks (masked self-attention +
cross-attention), followed by a linear projection to token logits.  The
paper's production configuration uses a 720-dimensional embedding with 12
attention heads; our CPU-budget defaults are smaller but every dimension is
configurable through :class:`TransformerConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .blocks import DecoderBlock, EncoderBlock
from .functional import causal_mask, combine_masks, padding_mask, sinusoidal_positional_encoding
from .layers import Dropout, Embedding, Linear, Module

__all__ = ["TransformerConfig", "Transformer"]


@dataclass(frozen=True)
class TransformerConfig:
    """Hyperparameters of the encoder-decoder transformer.

    The paper's configuration corresponds to ``d_model=720, n_heads=12``
    with the remaining Vaswani defaults (6+6 layers, d_ff=4*d_model);
    the defaults here are sized for CPU training.
    """

    vocab_size: int
    d_model: int = 128
    n_heads: int = 8
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    d_ff: int = 256
    dropout: float = 0.1
    max_len: int = 1024
    seed: int = 0
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.vocab_size < 5:
            raise ValueError("vocab_size must cover the special tokens")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.max_len < 2:
            raise ValueError("max_len must be at least 2")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype}")


class Transformer(Module):
    """Encoder-decoder transformer over integer token ids.

    Shapes: ``src_ids``/``tgt_ids`` are ``(B, T)`` int arrays; logits come
    back as ``(B, T_tgt, vocab)``.
    """

    def __init__(self, config: TransformerConfig):
        super().__init__()
        from .layers import get_default_dtype, set_default_dtype

        self.config = config
        self.rng = np.random.default_rng(config.seed)
        rng = self.rng
        c = config
        previous_dtype = get_default_dtype()
        set_default_dtype(c.dtype)
        try:
            self._build(c, rng)
        finally:
            set_default_dtype(previous_dtype)

    def _build(self, c: TransformerConfig, rng: np.random.Generator) -> None:
        self.src_embed = self.register("src_embed", Embedding(c.vocab_size, c.d_model, rng))
        self.tgt_embed = self.register("tgt_embed", Embedding(c.vocab_size, c.d_model, rng))
        self.encoder_blocks = [
            self.register(f"encoder{i}", EncoderBlock(c.d_model, c.n_heads, c.d_ff, c.dropout, rng))
            for i in range(c.n_encoder_layers)
        ]
        self.decoder_blocks = [
            self.register(f"decoder{i}", DecoderBlock(c.d_model, c.n_heads, c.d_ff, c.dropout, rng))
            for i in range(c.n_decoder_layers)
        ]
        self.out_proj = self.register("out_proj", Linear(c.d_model, c.vocab_size, rng))
        self.embed_dropout_src = self.register("embed_dropout_src", Dropout(c.dropout, rng))
        self.embed_dropout_tgt = self.register("embed_dropout_tgt", Dropout(c.dropout, rng))
        self.positional = sinusoidal_positional_encoding(c.max_len, c.d_model).astype(c.dtype)
        self._scale = float(np.sqrt(c.d_model))
        self._cache: dict | None = None

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def encode(self, src_ids: np.ndarray, src_pad: np.ndarray, training: bool) -> np.ndarray:
        """Run the encoder stack; returns the memory ``(B, T_src, d)``."""
        _, t_src = src_ids.shape
        if t_src > self.config.max_len:
            raise ValueError(f"source length {t_src} exceeds max_len {self.config.max_len}")
        mask = padding_mask(src_pad)
        x = self.src_embed.forward(src_ids) * self._scale + self.positional[:t_src]
        x = self.embed_dropout_src.forward(x, training)
        for block in self.encoder_blocks:
            x = block.forward(x, mask, training)
        return x

    def forward(
        self,
        src_ids: np.ndarray,
        tgt_ids: np.ndarray,
        src_pad: np.ndarray,
        tgt_pad: np.ndarray,
        training: bool = True,
    ) -> np.ndarray:
        """Teacher-forced forward pass; returns logits ``(B, T_tgt, V)``."""
        _, t_tgt = tgt_ids.shape
        if t_tgt > self.config.max_len:
            raise ValueError(f"target length {t_tgt} exceeds max_len {self.config.max_len}")
        memory = self.encode(src_ids, src_pad, training)

        self_mask = combine_masks(causal_mask(t_tgt), padding_mask(tgt_pad))
        cross_mask = padding_mask(src_pad)

        y = self.tgt_embed.forward(tgt_ids) * self._scale + self.positional[:t_tgt]
        y = self.embed_dropout_tgt.forward(y, training)
        for block in self.decoder_blocks:
            y = block.forward(y, memory, self_mask, cross_mask, training)
        logits = self.out_proj.forward(y)
        self._cache = {"n_dec": len(self.decoder_blocks)}
        return logits

    def backward(self, dlogits: np.ndarray) -> None:
        """Backpropagate from the logits gradient; accumulates into grads."""
        assert self._cache is not None, "backward before forward"
        dy = self.out_proj.backward(dlogits)
        dmemory_total: np.ndarray | None = None
        for block in reversed(self.decoder_blocks):
            dy, dmemory = block.backward(dy)
            dmemory_total = dmemory if dmemory_total is None else dmemory_total + dmemory
        dy = self.embed_dropout_tgt.backward(dy)
        self.tgt_embed.backward(dy * self._scale)

        dx = dmemory_total if dmemory_total is not None else 0.0
        for block in reversed(self.encoder_blocks):
            dx = block.backward(dx)
        dx = self.embed_dropout_src.backward(dx)
        self.src_embed.backward(dx * self._scale)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def encode_by_length(self, src_ids: np.ndarray, src_pad: np.ndarray) -> np.ndarray:
        """Inference-mode encoder memory of right-padded sources.

        ``src_pad`` must be True on a suffix of each row and False on at
        least its first token.  Rows are encoded in groups of equal
        unpadded length, so no encoder work is spent on padding and a
        row's memory does not depend on its batch neighbours.  Returns
        ``(B, L, D)`` with ``L`` the longest unpadded length, zero at each
        row's padded positions.
        """
        batch, t_src = src_ids.shape
        lengths = t_src - src_pad.sum(axis=1)
        if np.any(src_pad != (np.arange(t_src) >= lengths[:, None])):
            raise ValueError("source padding must be a suffix of each row")
        if np.any(lengths == 0):
            raise ValueError("every source row needs at least one token")
        width = int(lengths.max(initial=0))
        memory = np.zeros((batch, width, self.config.d_model), dtype=self.config.dtype)
        for length in np.unique(lengths):
            rows = np.flatnonzero(lengths == length)
            memory[rows, :length] = self.encode(
                src_ids[rows, :length], src_pad[rows, :length], training=False
            )
        return memory

    def greedy_decode(
        self,
        src_ids: np.ndarray,
        src_pad: np.ndarray,
        bos_id: int,
        eos_id: int,
        max_len: int | None = None,
    ) -> list[list[int]]:
        """Greedy autoregressive decoding with per-layer KV caching.

        Mathematically identical to re-running the decoder on the whole
        prefix each step (checked by a regression test against the naive
        decoder in ``tests/scalar_reference.py``) but O(T^2) instead of
        O(T^3).
        Sources must be right-padded; the memory comes from
        :meth:`encode_by_length`.  Returns one id list per batch row
        (without BOS, truncated at EOS).
        """
        limit = min(max_len or self.config.max_len, self.config.max_len)
        batch = src_ids.shape[0]
        memory = self.encode_by_length(src_ids, src_pad)
        # Padded keys are zero rows of ``memory``; the mask's -1e30 gives
        # them exactly zero cross-attention weight.
        cross_bias = padding_mask(src_pad[:, : memory.shape[1]]).astype(memory.dtype)

        # Precompute cross-attention keys/values once per decoder block, and
        # preallocate the self-attention KV buffers: appending via
        # concatenate would copy the whole O(T) cache every step (O(T^2)
        # traffic that batching cannot amortize).
        n_heads = self.config.n_heads
        head_dim = self.config.d_model // n_heads
        caches: list[dict] = []
        for block in self.decoder_blocks:
            cross = block.cross_attn
            caches.append(
                {
                    "cross_k": cross._split_heads(cross.w_k.forward(memory)),
                    "cross_v": cross._split_heads(cross.w_v.forward(memory)),
                    "self_k": np.empty((batch, n_heads, limit, head_dim), dtype=memory.dtype),
                    "self_v": np.empty((batch, n_heads, limit, head_dim), dtype=memory.dtype),
                }
            )

        generated = np.full((batch, 1), bos_id, dtype=np.int64)
        finished = np.zeros(batch, dtype=bool)
        for step in range(limit - 1):
            last = generated[:, -1:]
            y = self.tgt_embed.forward(last) * self._scale + self.positional[step : step + 1]
            for block, cache in zip(self.decoder_blocks, caches, strict=True):
                self_attn = block.self_attn
                q = self_attn._split_heads(self_attn.w_q.forward(y))
                cache["self_k"][:, :, step : step + 1] = self_attn._split_heads(
                    self_attn.w_k.forward(y)
                )
                cache["self_v"][:, :, step : step + 1] = self_attn._split_heads(
                    self_attn.w_v.forward(y)
                )
                weights = self_attn.attention_weights(q, cache["self_k"][:, :, : step + 1], None)
                context = weights @ cache["self_v"][:, :, : step + 1]
                attended = self_attn.w_o.forward(self_attn._merge_heads(context))
                x = block.norm1.forward(y + attended)

                cross = block.cross_attn
                q2 = cross._split_heads(cross.w_q.forward(x))
                weights = cross.attention_weights(q2, cache["cross_k"], cross_bias)
                context2 = weights @ cache["cross_v"]
                crossed = cross.w_o.forward(cross._merge_heads(context2))
                x = block.norm2.forward(x + crossed)

                fed = block.ffn.forward(x, training=False)
                y = block.norm3.forward(x + fed)

            logits = self.out_proj.forward(y)
            next_ids = np.argmax(logits[:, 0, :], axis=-1)
            next_ids = np.where(finished, eos_id, next_ids)
            generated = np.concatenate([generated, next_ids[:, None]], axis=1)
            finished |= next_ids == eos_id
            if finished.all():
                break

        return self._strip_generated(generated, eos_id)

    @staticmethod
    def _strip_generated(generated: np.ndarray, eos_id: int) -> list[list[int]]:
        outputs: list[list[int]] = []
        for row in generated:
            ids = list(row[1:])
            if eos_id in ids:
                ids = ids[: ids.index(eos_id)]
            outputs.append([int(i) for i in ids])
        return outputs

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Save config + parameters to an ``.npz`` checkpoint."""
        payload: dict[str, np.ndarray] = {
            f"param:{name}": value for name, value in self.named_parameters()
        }
        for key, value in asdict(self.config).items():
            payload[f"config:{key}"] = np.array(value)
        np.savez(path, **payload)

    @classmethod
    def load(cls, path: str | Path) -> Transformer:
        """Load a checkpoint saved by :meth:`save`."""
        data = np.load(path)
        config_kwargs = {}
        for key in data.files:
            if key.startswith("config:"):
                name = key.split(":", 1)[1]
                value = data[key]
                config_kwargs[name] = value.item()
        config = TransformerConfig(**config_kwargs)
        model = cls(config)
        state = {
            key.split(":", 1)[1]: data[key]
            for key in data.files
            if key.startswith("param:")
        }
        model.load_state_dict(state)
        return model
