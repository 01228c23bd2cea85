"""Weighted cross-entropy loss (Sec. III-C, "Loss Function").

Each output token is a class.  The paper upweights the classes that carry
numeric device-parameter information (digits, sign, decimal point) by 20%,
which it found optimal, so the model concentrates on predicting values
accurately.  Padding positions are masked out of the loss entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nlp.tokenizer import Vocabulary
from .functional import softmax

__all__ = ["WeightedCrossEntropy", "numeric_token_weights"]

#: Characters whose single-token classes carry numeric value information.
_NUMERIC_CHARS = set("0123456789.-")


def numeric_token_weights(vocab: Vocabulary, numeric_weight: float = 1.2) -> np.ndarray:
    """Per-class weight vector: numeric-value tokens get ``numeric_weight``.

    The paper's restricted BPE keeps value digits as single-character
    tokens, so the numeric classes are exactly the tokens consisting of
    digit / dot / minus characters.  All other classes weigh 1.
    """
    weights = np.ones(len(vocab))
    for token, index in vocab.token_to_id.items():
        if token and all(ch in _NUMERIC_CHARS for ch in token):
            weights[index] = numeric_weight
    return weights


@dataclass
class LossResult:
    loss: float
    dlogits: np.ndarray
    token_count: int
    correct: int

    @property
    def accuracy(self) -> float:
        return self.correct / max(self.token_count, 1)


class WeightedCrossEntropy:
    """Softmax cross-entropy with per-class weights and pad masking."""

    def __init__(self, class_weights: np.ndarray | None = None, pad_id: int = 0):
        self.class_weights = class_weights
        self.pad_id = pad_id

    def __call__(self, logits: np.ndarray, targets: np.ndarray) -> LossResult:
        """Compute loss and logits gradient.

        ``logits``: (B, T, V); ``targets``: (B, T) int ids; positions whose
        target is ``pad_id`` contribute nothing.
        """
        batch, seq, vocab = logits.shape
        flat_logits = logits.reshape(-1, vocab)
        flat_targets = targets.reshape(-1)
        valid = flat_targets != self.pad_id

        probs = softmax(flat_logits, axis=-1)
        picked = probs[np.arange(flat_targets.size), flat_targets]
        # Floor at the dtype's smallest normal number: a float32 1e-300
        # would round to 0 and turn an underflowed probability into inf.
        log_picked = -np.log(np.maximum(picked, np.finfo(picked.dtype).tiny))

        if self.class_weights is not None:
            token_weights = self.class_weights[flat_targets]
        else:
            token_weights = np.ones_like(log_picked)
        token_weights = token_weights * valid

        weight_sum = float(token_weights.sum())
        if weight_sum == 0.0:
            return LossResult(0.0, np.zeros_like(logits), 0, 0)
        loss = float((log_picked * token_weights).sum() / weight_sum)

        dflat = probs.copy()
        dflat[np.arange(flat_targets.size), flat_targets] -= 1.0
        dflat *= (token_weights / weight_sum)[:, None]

        predictions = np.argmax(flat_logits, axis=-1)
        correct = int(((predictions == flat_targets) & valid).sum())
        return LossResult(
            loss=loss,
            dlogits=dflat.reshape(batch, seq, vocab),
            token_count=int(valid.sum()),
            correct=correct,
        )
