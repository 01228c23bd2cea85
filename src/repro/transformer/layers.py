"""Parameterized layers with explicit forward/backward passes.

Everything is implemented directly in numpy with hand-derived gradients;
there is no autograd.  Each layer caches what its backward pass needs during
forward, so the usage pattern is strictly ``forward -> backward`` per step.
Parameters and gradients are exposed through the :class:`Module` tree so the
optimizer can iterate them by name.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .functional import relu, relu_backward

__all__ = [
    "Module",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "FeedForward",
    "set_default_dtype",
    "get_default_dtype",
]

#: Dtype newly created parameters are cast to.  float64 keeps the
#: finite-difference gradient checks tight; float32 roughly halves
#: training time and is what the production pipeline uses.
_DEFAULT_DTYPE = np.float64


def set_default_dtype(dtype) -> None:
    """Set the dtype used for parameters created after this call."""
    global _DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported parameter dtype {dtype!r}")
    _DEFAULT_DTYPE = resolved.type


def get_default_dtype():
    return _DEFAULT_DTYPE


class Module:
    """Minimal parameter-tree container (a very small torch.nn.Module)."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self._children: dict[str, Module] = {}

    # ------------------------------------------------------------------
    def add_param(self, name: str, value: np.ndarray) -> np.ndarray:
        value = np.asarray(value, dtype=_DEFAULT_DTYPE)
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)
        return value

    def register(self, name: str, module: Module) -> Module:
        self._children[name] = module
        return module

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, value in self.params.items():
            yield prefix + name, value
        for child_name, child in self._children.items():
            yield from child.named_parameters(prefix + child_name + ".")

    def named_gradients(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, value in self.grads.items():
            yield prefix + name, value
        for child_name, child in self._children.items():
            yield from child.named_gradients(prefix + child_name + ".")

    def zero_grad(self) -> None:
        for name in self.grads:
            self.grads[name][...] = 0.0
        for child in self._children.values():
            child.zero_grad()

    def parameter_count(self) -> int:
        return sum(int(np.prod(p.shape)) for _, p in self.named_parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: value.copy() for name, value in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state dict is missing parameters: {sorted(missing)[:5]} ...")
        for name, value in own.items():
            if state[name].shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {state[name].shape} vs {value.shape}"
                )
            value[...] = state[name]


class Linear(Module):
    """Affine map ``y = x @ W + b`` over the trailing dimension."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, bias: bool = True):
        super().__init__()
        scale = np.sqrt(2.0 / (d_in + d_out))  # Glorot
        self.weight = self.add_param("weight", rng.normal(0.0, scale, size=(d_in, d_out)))
        self.bias: np.ndarray | None = (
            self.add_param("bias", np.zeros(d_out)) if bias else None
        )
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # One 2-D GEMM over all leading dimensions: a (B, T, d_in) @ W
        # product would take NumPy's slower stacked-matmul path.
        self._x = x
        out = x.reshape(-1, x.shape[-1]) @ self.weight
        if self.bias is not None:
            out += self.bias
        return out.reshape(*x.shape[:-1], out.shape[-1])

    def backward(self, dout: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward before forward"
        x2d = self._x.reshape(-1, self._x.shape[-1])
        dout2d = dout.reshape(-1, dout.shape[-1])
        self.grads["weight"] += x2d.T @ dout2d
        if self.bias is not None:
            self.grads["bias"] += dout2d.sum(axis=0)
        return (dout2d @ self.weight.T).reshape(self._x.shape)


class Embedding(Module):
    """Token-id lookup table."""

    def __init__(self, vocab_size: int, d_model: int, rng: np.random.Generator):
        super().__init__()
        self.table = self.add_param(
            "table", rng.normal(0.0, 1.0 / np.sqrt(d_model), size=(vocab_size, d_model))
        )
        self._ids: np.ndarray | None = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        self._ids = ids
        return self.table[ids]

    def backward(self, dout: np.ndarray) -> None:
        assert self._ids is not None, "backward before forward"
        np.add.at(self.grads["table"], self._ids.reshape(-1), dout.reshape(-1, dout.shape[-1]))


class LayerNorm(Module):
    """Layer normalization over the trailing dimension."""

    def __init__(self, d_model: int, eps: float = 1e-5):
        super().__init__()
        self.gamma = self.add_param("gamma", np.ones(d_model))
        self.beta = self.add_param("beta", np.zeros(d_model))
        self.eps = eps
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # The ufuncs that ``x.mean(axis=-1)`` and ``x.var(axis=-1)`` run
        # (sum, divide by the count; subtract the mean, square, sum,
        # divide), called directly and centring ``x`` once for both the
        # variance and the output: bit-identical to the two-pass formula.
        count = np.intp(x.shape[-1])
        mean = np.add.reduce(x, axis=-1, keepdims=True)
        np.true_divide(mean, count, out=mean, casting="unsafe")
        centered = x - mean
        var = np.add.reduce(np.square(centered), axis=-1, keepdims=True)
        np.true_divide(var, count, out=var, casting="unsafe")
        inv_std = 1.0 / np.sqrt(var + self.eps)
        normalized = np.multiply(centered, inv_std, out=centered)
        self._cache = (normalized, inv_std)
        out = normalized * self.gamma
        out += self.beta
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward before forward"
        normalized, inv_std = self._cache
        d = dout.shape[-1]
        dout2d = dout.reshape(-1, d)
        norm2d = normalized.reshape(-1, d)
        self.grads["gamma"] += (dout2d * norm2d).sum(axis=0)
        self.grads["beta"] += dout2d.sum(axis=0)
        dnorm = dout * self.gamma
        # dx = inv_std * (dnorm - mean(dnorm) - normalized * mean(dnorm*normalized))
        mean_dnorm = dnorm.mean(axis=-1, keepdims=True)
        mean_dnorm_norm = (dnorm * normalized).mean(axis=-1, keepdims=True)
        return inv_std * (dnorm - mean_dnorm - normalized * mean_dnorm_norm)


class Dropout(Module):
    """Inverted dropout; identity when ``rate == 0`` or not training."""

    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        # The mask takes x's dtype, so a float32 model trains in float32.
        self._mask = ((self.rng.random(x.shape) < keep) / keep).astype(x.dtype, copy=False)
        return x * self._mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dout
        return dout * self._mask


class FeedForward(Module):
    """Position-wise FFN: two linear layers with activation and dropout
    after each, per the paper's description of the FFN block."""

    def __init__(self, d_model: int, d_ff: int, dropout: float, rng: np.random.Generator):
        super().__init__()
        self.linear1 = self.register("linear1", Linear(d_model, d_ff, rng))
        self.linear2 = self.register("linear2", Linear(d_ff, d_model, rng))
        self.dropout1 = self.register("dropout1", Dropout(dropout, rng))
        self.dropout2 = self.register("dropout2", Dropout(dropout, rng))
        self._hidden_pre: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        hidden_pre = self.linear1.forward(x)
        self._hidden_pre = hidden_pre
        hidden = relu(hidden_pre)
        hidden = self.dropout1.forward(hidden, training)
        out = self.linear2.forward(hidden)
        return self.dropout2.forward(out, training)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        assert self._hidden_pre is not None, "backward before forward"
        dout = self.dropout2.backward(dout)
        dhidden = self.linear2.backward(dout)
        dhidden = self.dropout1.backward(dhidden)
        dhidden = relu_backward(self._hidden_pre, dhidden)
        return self.linear1.backward(dhidden)
