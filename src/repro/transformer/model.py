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
        """Run the encoder stack; returns the memory ``(B, T_src, d)``.

        Without padding there is no mask: adding an all-zero one would
        only cost a pass over every score tensor.
        """
        _, t_src = src_ids.shape
        if t_src > self.config.max_len:
            raise ValueError(f"source length {t_src} exceeds max_len {self.config.max_len}")
        mask = padding_mask(src_pad) if src_pad.any() else None
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
        :meth:`encode_by_length`.  A row that emits EOS leaves the batch:
        it is compacted out of every cache, so each step runs only the
        rows still decoding.  A step with two or more rows gives each row
        the logits, bit for bit, of the reference step loop that keeps
        finished rows (``greedy_decode_stepwise`` in the same module); a
        step with one row left runs matrix-vector products, as a
        batch-of-one decode does.  Returns one id list per batch row
        (without BOS, truncated at EOS).
        """
        limit = min(max_len or self.config.max_len, self.config.max_len)
        batch = src_ids.shape[0]
        memory = self.encode_by_length(src_ids, src_pad)
        # Padded keys are zero rows of ``memory``; the mask's -1e30 gives
        # them exactly zero cross-attention weight.
        cross_bias = padding_mask(src_pad[:, : memory.shape[1]]).astype(memory.dtype)
        layers = [_DecodeLayer(block, memory, cross_bias, limit) for block in self.decoder_blocks]
        table, positional, scale = self.tgt_embed.table, self.positional, self._scale
        w_out, b_out = self.out_proj.weight, self.out_proj.bias

        tokens = np.empty((batch, limit), dtype=np.int64)
        tokens[:, 0] = bos_id
        ends = np.full(batch, limit)  # each row's EOS column, or limit
        rows = np.arange(batch)  # the batch rows still decoding
        last = tokens[:, 0]
        for step in range(limit - 1):
            y = table[last] * scale + positional[step]
            for layer in layers:
                y = layer.step(y, step)
            logits = y @ w_out
            logits += b_out
            next_ids = np.argmax(logits, axis=-1)
            tokens[rows, step + 1] = next_ids
            done = next_ids == eos_id
            last = next_ids
            if done.any():
                ends[rows[done]] = step + 1
                kept = np.flatnonzero(~done)
                if kept.size == 0:
                    break
                rows, last = rows[kept], next_ids[kept]
                for layer in layers:
                    layer.keep(kept, step + 1)
        return [tokens[row, 1:end].tolist() for row, end in enumerate(ends)]

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


#: Positions a decode's self-attention caches hold at first; they double
#: when full.  NumPy asks for transparent huge pages on arrays of 4 MB and
#: more, so caches sized for ``max_len`` positions up front would be
#: mostly resident once their first positions are written.
_CACHE_POSITIONS = 64


def _affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``Linear.forward`` on a 2-D input, without its backward cache."""
    out = x @ weight
    out += bias
    return out


class _DecodeLayer:
    """One decoder block's bound weights and caches for a greedy decode.

    :meth:`step` is :meth:`DecoderBlock.forward` on one new token per row
    in inference mode, op for op: each ``Linear`` is its one 2-D GEMM plus
    bias, both attentions go through
    :meth:`MultiHeadAttention.attention_weights`, and the block's own
    ``LayerNorm`` modules normalize.  The rows are the batch rows still
    decoding; :meth:`keep` drops finished ones from every cache.
    """

    def __init__(
        self, block: DecoderBlock, memory: np.ndarray, cross_bias: np.ndarray, limit: int
    ):
        self_attn, cross, ffn = block.self_attn, block.cross_attn, block.ffn
        self.heads, self.head_dim = self_attn.n_heads, self_attn.d_head
        self.self_weights = self_attn.attention_weights
        self.cross_weights = cross.attention_weights
        self.q, self.k, self.v, self.o, self.cross_q, self.cross_o, self.ff1, self.ff2 = (
            (linear.weight, linear.bias)
            for linear in (
                self_attn.w_q, self_attn.w_k, self_attn.w_v, self_attn.w_o,
                cross.w_q, cross.w_o, ffn.linear1, ffn.linear2,
            )
        )
        self.norm1, self.norm2, self.norm3 = block.norm1, block.norm2, block.norm3

        # Cross-attention keys and values, once per call.  Keys keep the
        # key projection's (B, T, D) layout and are split into heads as a
        # view at each step: a head-contiguous copy rounds the q.k products
        # differently.  Values are stored head-contiguous, (B, H, T,
        # d_head), which the p.v products read faster and round identically.
        self.split_heads = cross._split_heads
        memory2d = memory.reshape(-1, memory.shape[-1])
        self.cross_k = _affine(memory2d, cross.w_k.weight, cross.w_k.bias).reshape(memory.shape)
        self.cross_v = np.ascontiguousarray(
            self.split_heads(
                _affine(memory2d, cross.w_v.weight, cross.w_v.bias).reshape(memory.shape)
            )
        )
        self.cross_bias = cross_bias
        # Self-attention caches, written in place: appending via
        # concatenate would copy the whole O(T) cache every step.
        self.limit = limit
        shape = (memory.shape[0], self.heads, min(limit, _CACHE_POSITIONS), self.head_dim)
        self.self_k = np.empty(shape, dtype=memory.dtype)
        self.self_v = np.empty(shape, dtype=memory.dtype)

    def step(self, y: np.ndarray, step: int) -> np.ndarray:
        """The block's output for the token at position ``step``: ``y`` is
        ``(rows, D)`` and each row attends over its first ``step + 1``
        positions."""
        rows, heads, head_dim = y.shape[0], self.heads, self.head_dim
        if step == self.self_k.shape[2]:
            self._grow(step)
        q = _affine(y, *self.q).reshape(rows, heads, 1, head_dim)
        self.self_k[:, :, step] = _affine(y, *self.k).reshape(rows, heads, head_dim)
        self.self_v[:, :, step] = _affine(y, *self.v).reshape(rows, heads, head_dim)
        weights = self.self_weights(q, self.self_k[:, :, : step + 1], None)
        context = (weights @ self.self_v[:, :, : step + 1]).reshape(rows, -1)
        x = self.norm1.forward(y + _affine(context, *self.o))

        q = _affine(x, *self.cross_q).reshape(rows, heads, 1, head_dim)
        weights = self.cross_weights(q, self.split_heads(self.cross_k), self.cross_bias)
        context = (weights @ self.cross_v).reshape(rows, -1)
        x = self.norm2.forward(x + _affine(context, *self.cross_o))

        hidden = _affine(x, *self.ff1)
        np.maximum(hidden, 0.0, out=hidden)
        return self.norm3.forward(x + _affine(hidden, *self.ff2))

    def _grow(self, filled: int) -> None:
        """Double the self-attention caches' positions, up to ``limit``."""
        rows, heads, positions, head_dim = self.self_k.shape
        shape = (rows, heads, min(2 * positions, self.limit), head_dim)
        grown_k = np.empty(shape, dtype=self.self_k.dtype)
        grown_v = np.empty(shape, dtype=self.self_v.dtype)
        grown_k[:, :, :filled] = self.self_k[:, :, :filled]
        grown_v[:, :, :filled] = self.self_v[:, :, :filled]
        self.self_k, self.self_v = grown_k, grown_v

    def keep(self, kept: np.ndarray, filled: int) -> None:
        """Keep only the rows ``kept`` (ascending) of every cache.

        The self-attention caches move their first ``filled`` positions
        to the front rows of the same buffers, so no new cache memory is
        touched.
        """
        rows = kept.size
        self.self_k[:rows, :, :filled] = self.self_k[kept, :, :filled]
        self.self_v[:rows, :, :filled] = self.self_v[kept, :, :filled]
        self.self_k, self.self_v = self.self_k[:rows], self.self_v[:rows]
        self.cross_k = self.cross_k[kept]
        self.cross_v = self.cross_v[kept]
        self.cross_bias = self.cross_bias[kept]
