"""Numerical building blocks for the numpy transformer.

Stable softmax, masks and sinusoidal positional encodings -- the pieces of
the Vaswani architecture (Sec. II-A of the paper) that are pure functions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "softmax",
    "softmax_",
    "softmax_backward",
    "relu",
    "relu_backward",
    "sinusoidal_positional_encoding",
    "causal_mask",
    "padding_mask",
    "combine_masks",
    "NEG_INF",
]

#: Additive mask value for disallowed attention positions.
NEG_INF = -1e30


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``; ``x`` is left untouched."""
    return softmax_(x.copy(), axis)


def softmax_(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """In-place numerically stable softmax: overwrites and returns ``x``.

    ``x`` must be a floating-point array.  Working inside it avoids the
    shifted and exponentiated temporaries of an out-of-place softmax.
    """
    x -= np.max(x, axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= np.sum(x, axis=axis, keepdims=True)
    return x


def softmax_backward(probs: np.ndarray, dout: np.ndarray, axis: int = -1) -> np.ndarray:
    """Backward pass of softmax given its output ``probs``.

    Implements ``dx = probs * (dout - sum(dout * probs))`` along ``axis``.
    """
    inner = np.sum(dout * probs, axis=axis, keepdims=True)
    return probs * (dout - inner)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, dout: np.ndarray) -> np.ndarray:
    return dout * (x > 0.0)


def sinusoidal_positional_encoding(max_len: int, d_model: int) -> np.ndarray:
    """The sine/cosine positional encoding of Vaswani et al.

    ``PE[pos, 2i] = sin(pos / 10000^(2i/d))``,
    ``PE[pos, 2i+1] = cos(pos / 10000^(2i/d))``.
    """
    if d_model % 2 != 0:
        raise ValueError("d_model must be even for sinusoidal encoding")
    positions = np.arange(max_len)[:, None].astype(float)
    dims = np.arange(0, d_model, 2).astype(float)
    angles = positions / np.power(10000.0, dims / d_model)
    encoding = np.zeros((max_len, d_model))
    encoding[:, 0::2] = np.sin(angles)
    encoding[:, 1::2] = np.cos(angles)
    return encoding


def causal_mask(length: int) -> np.ndarray:
    """Additive ``(1, 1, T, T)`` mask blocking attention to future tokens."""
    mask = np.triu(np.full((length, length), NEG_INF), k=1)
    return mask[None, None, :, :]


def padding_mask(key_is_pad: np.ndarray) -> np.ndarray:
    """Additive ``(B, 1, 1, Tk)`` mask blocking attention to pad keys.

    ``key_is_pad`` is a boolean ``(B, Tk)`` array, True at padding tokens.
    """
    mask = np.where(key_is_pad, NEG_INF, 0.0)
    return mask[:, None, None, :]


def combine_masks(*masks: np.ndarray | None) -> np.ndarray | None:
    """Sum additive masks, broadcasting; ``None`` entries are skipped."""
    result: np.ndarray | None = None
    for mask in masks:
        if mask is None:
            continue
        result = mask if result is None else result + mask
    return result
