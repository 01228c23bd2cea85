"""Multi-head scaled dot-product attention with explicit backward pass.

Implements Eq. (1) of the paper::

    Attention(Q, K, V) = softmax(Q K^T / sqrt(d_k)) V

with ``h`` parallel heads, input/output projections and an optional
additive mask (causal and/or key-padding).  Used in three roles: encoder
self-attention, masked decoder self-attention, and decoder cross-attention
(queries from the decoder, keys/values from the encoder memory).
"""

from __future__ import annotations


import numpy as np

from .functional import softmax_, softmax_backward
from .layers import Dropout, Linear, Module

__all__ = ["MultiHeadAttention"]


class MultiHeadAttention(Module):
    """Multi-head attention over ``(B, T, d_model)`` tensors."""

    def __init__(self, d_model: int, n_heads: int, dropout: float, rng: np.random.Generator):
        super().__init__()
        if d_model % n_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by n_heads={n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        self.d_head = d_model // n_heads
        # A Python float, not a NumPy float64 scalar: dividing a float32
        # array by the latter would promote it to float64.
        self.scale = float(np.sqrt(self.d_head))
        self.w_q = self.register("w_q", Linear(d_model, d_model, rng))
        self.w_k = self.register("w_k", Linear(d_model, d_model, rng))
        self.w_v = self.register("w_v", Linear(d_model, d_model, rng))
        self.w_o = self.register("w_o", Linear(d_model, d_model, rng))
        self.dropout = self.register("dropout", Dropout(dropout, rng))
        self._cache: tuple | None = None

    # ------------------------------------------------------------------
    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """(B, T, D) -> (B, H, T, d_head)."""
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.n_heads, self.d_head).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        """(B, H, T, d_head) -> (B, T, D)."""
        batch, _, seq, _ = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, self.d_model)

    def attention_weights(
        self, q: np.ndarray, k: np.ndarray, mask: np.ndarray | None
    ) -> np.ndarray:
        """``softmax(q k^T / sqrt(d_head) + mask)`` over split heads.

        The scale, the mask add and the softmax all run inside the score
        buffer, so the only allocation is the ``(B, H, Tq, Tk)`` product.
        """
        scores = q @ k.transpose(0, 1, 3, 2)
        scores /= self.scale
        if mask is not None:
            scores += mask.astype(scores.dtype, copy=False)
        return softmax_(scores, axis=-1)

    # ------------------------------------------------------------------
    def forward(
        self,
        query_input: np.ndarray,
        kv_input: np.ndarray,
        mask: np.ndarray | None,
        training: bool,
    ) -> np.ndarray:
        """Attend queries (from ``query_input``) over keys/values (from
        ``kv_input``); ``mask`` is additive, broadcastable to
        ``(B, H, Tq, Tk)``."""
        q = self._split_heads(self.w_q.forward(query_input))
        k = self._split_heads(self.w_k.forward(kv_input))
        v = self._split_heads(self.w_v.forward(kv_input))

        probs = self.attention_weights(q, k, mask)
        probs_dropped = self.dropout.forward(probs, training)
        context = probs_dropped @ v
        out = self.w_o.forward(self._merge_heads(context))
        self._cache = (q, k, v, probs, probs_dropped)
        return out

    def backward(self, dout: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns ``(d_query_input, d_kv_input)``."""
        assert self._cache is not None, "backward before forward"
        q, k, v, probs, probs_dropped = self._cache

        dcontext_merged = self.w_o.backward(dout)
        dcontext = self._split_heads(dcontext_merged)

        dprobs_dropped = dcontext @ v.transpose(0, 1, 3, 2)
        dv = probs_dropped.transpose(0, 1, 3, 2) @ dcontext
        dprobs = self.dropout.backward(dprobs_dropped)
        dscores = softmax_backward(probs, dprobs) / self.scale

        dq = dscores @ k
        dk = dscores.transpose(0, 1, 3, 2) @ q

        dquery_input = self.w_q.backward(self._merge_heads(dq))
        dkv_input = self.w_k.backward(self._merge_heads(dk))
        dkv_input = dkv_input + self.w_v.backward(self._merge_heads(dv))
        return dquery_input, dkv_input
