"""Gradient and behaviour tests of the transformer building blocks.

Every analytic backward pass is validated against central finite
differences -- the canonical correctness check for hand-written backprop.
"""

import numpy as np
import pytest

from repro.transformer import (
    Dropout,
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    causal_mask,
    combine_masks,
    padding_mask,
    sinusoidal_positional_encoding,
    softmax,
)
from repro.transformer.functional import softmax_, softmax_backward
from repro.transformer.layers import get_default_dtype, set_default_dtype


def numeric_grad(fn, array, eps=1e-6):
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn()
        flat[i] = original - eps
        minus = fn()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        x = np.random.default_rng(0).normal(size=(3, 7))
        probs = softmax(x)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0)

    def test_softmax_stability_large_inputs(self):
        probs = softmax(np.array([1e30, 0.0, -1e30]))
        assert np.isfinite(probs).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inplace_softmax(self, dtype):
        """``softmax_`` overwrites its argument in its own dtype; -1e30
        masked entries get exactly zero weight, and ``softmax`` leaves its
        input untouched."""
        rng = np.random.default_rng(2)
        scores = rng.normal(scale=4.0, size=(3, 5, 37))
        masked = rng.random(scores.shape) < 0.3
        masked[:, :, 0] = False  # keep a live entry per row
        x = (scores + np.where(masked, -1e30, 0.0)).astype(dtype)
        before = x.copy()
        expected = softmax(x)
        assert x.tobytes() == before.tobytes()
        out = softmax_(x)
        assert out is x
        assert out.dtype == dtype
        assert out.tobytes() == expected.tobytes()
        assert not out[masked].any()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-6)

    def test_softmax_backward_matches_numeric(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 5))
        dout = rng.normal(size=(2, 5))

        def loss():
            return float((softmax(x) * dout).sum())

        analytic = softmax_backward(softmax(x), dout)
        numeric = numeric_grad(loss, x)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8)

    def test_positional_encoding_shape_and_range(self):
        pe = sinusoidal_positional_encoding(50, 16)
        assert pe.shape == (50, 16)
        assert np.abs(pe).max() <= 1.0

    def test_positional_encoding_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            sinusoidal_positional_encoding(10, 15)

    def test_causal_mask_blocks_future(self):
        mask = causal_mask(4)[0, 0]
        assert mask[0, 1] < -1e20
        assert mask[3, 0] == 0.0

    def test_padding_mask_blocks_pads(self):
        pads = np.array([[False, True]])
        mask = padding_mask(pads)
        assert mask[0, 0, 0, 1] < -1e20
        assert mask[0, 0, 0, 0] == 0.0

    def test_combine_masks(self):
        assert combine_masks(None, None) is None
        merged = combine_masks(causal_mask(3), None)
        assert merged.shape == (1, 1, 3, 3)


class TestLinear:
    def test_forward_shape(self):
        rng = np.random.default_rng(0)
        layer = Linear(4, 6, rng)
        out = layer.forward(np.ones((2, 3, 4)))
        assert out.shape == (2, 3, 6)

    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(0)
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3))
        dout = rng.normal(size=(4, 2))

        def loss():
            return float((layer.forward(x) * dout).sum())

        layer.zero_grad()
        layer.forward(x)
        dx = layer.backward(dout)
        np.testing.assert_allclose(layer.grads["weight"], numeric_grad(loss, layer.weight), rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(layer.grads["bias"], numeric_grad(loss, layer.bias), rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(dx, numeric_grad(loss, x), rtol=1e-6, atol=1e-9)

    def test_no_bias_option(self):
        layer = Linear(3, 2, np.random.default_rng(0), bias=False)
        assert "bias" not in layer.params


class TestEmbedding:
    def test_lookup(self):
        layer = Embedding(10, 4, np.random.default_rng(0))
        ids = np.array([[1, 2], [2, 3]])
        out = layer.forward(ids)
        np.testing.assert_allclose(out[0, 1], layer.table[2])
        np.testing.assert_allclose(out[1, 0], layer.table[2])

    def test_backward_scatter_adds(self):
        layer = Embedding(5, 3, np.random.default_rng(0))
        ids = np.array([[1, 1]])
        layer.zero_grad()
        layer.forward(ids)
        layer.backward(np.ones((1, 2, 3)))
        np.testing.assert_allclose(layer.grads["table"][1], 2.0 * np.ones(3))
        np.testing.assert_allclose(layer.grads["table"][0], 0.0)


class TestLayerNorm:
    def test_output_statistics(self):
        layer = LayerNorm(8)
        x = np.random.default_rng(0).normal(2.0, 3.0, size=(4, 8))
        out = layer.forward(x)
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, rtol=1e-3)

    def test_gradients_match_numeric(self):
        layer = LayerNorm(5)
        rng = np.random.default_rng(2)
        layer.gamma[...] = rng.normal(1.0, 0.1, size=5)
        layer.beta[...] = rng.normal(0.0, 0.1, size=5)
        x = rng.normal(size=(3, 5))
        dout = rng.normal(size=(3, 5))

        def loss():
            return float((layer.forward(x) * dout).sum())

        layer.zero_grad()
        layer.forward(x)
        dx = layer.backward(dout)
        np.testing.assert_allclose(dx, numeric_grad(loss, x), rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(layer.grads["gamma"], numeric_grad(loss, layer.gamma), rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(layer.grads["beta"], numeric_grad(loss, layer.beta), rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_matches_two_pass_formula_bit_for_bit(self, dtype):
        """Centring once gives the bits of ``x.mean``/``x.var`` and
        ``(x - mean) * inv_std``, in the output and in the backward cache."""
        previous = get_default_dtype()
        set_default_dtype(dtype)
        try:
            rng = np.random.default_rng(4)
            for shape in [(1, 64), (28, 64), (3, 7, 64), (40, 1, 192), (300, 33)]:
                layer = LayerNorm(shape[-1])
                layer.gamma[...] = rng.normal(1.0, 0.3, size=shape[-1])
                layer.beta[...] = rng.normal(0.0, 0.3, size=shape[-1])
                x = rng.normal(1.5, 4.0, size=shape).astype(dtype)
                out = layer.forward(x)

                mean = x.mean(axis=-1, keepdims=True)
                var = x.var(axis=-1, keepdims=True)
                inv_std = 1.0 / np.sqrt(var + layer.eps)
                normalized = (x - mean) * inv_std
                expected = normalized * layer.gamma + layer.beta
                assert out.dtype == expected.dtype == np.dtype(dtype)
                assert out.tobytes() == expected.tobytes()
                cached_normalized, cached_inv_std = layer._cache
                assert cached_normalized.tobytes() == normalized.tobytes()
                assert cached_inv_std.tobytes() == inv_std.tobytes()
        finally:
            set_default_dtype(previous)


class TestDropout:
    def test_identity_when_not_training(self):
        layer = Dropout(0.5, np.random.default_rng(0))
        x = np.ones((4, 4))
        np.testing.assert_allclose(layer.forward(x, training=False), x)

    def test_scaling_preserves_expectation(self):
        layer = Dropout(0.25, np.random.default_rng(0))
        x = np.ones((200, 200))
        out = layer.forward(x, training=True)
        assert out.mean() == pytest.approx(1.0, rel=0.05)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, np.random.default_rng(0))
        x = np.ones((8, 8))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, out)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Dropout(1.0, np.random.default_rng(0))

    def test_mask_keeps_input_dtype_and_draw(self):
        """A float32 input stays float32; the mask is the float64 one
        (same draw from the generator) rounded to float32."""
        x = np.ones((6, 5), dtype=np.float32)
        out = Dropout(0.3, np.random.default_rng(2)).forward(x, training=True)
        assert out.dtype == np.float32
        expected = (np.random.default_rng(2).random(x.shape) < 0.7) / 0.7
        assert np.array_equal(out, expected.astype(np.float32))


class TestFeedForward:
    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        ffn = FeedForward(4, 7, dropout=0.0, rng=rng)
        x = rng.normal(size=(2, 3, 4))
        dout = rng.normal(size=(2, 3, 4))

        def loss():
            return float((ffn.forward(x, training=False) * dout).sum())

        ffn.zero_grad()
        ffn.forward(x, training=False)
        dx = ffn.backward(dout)
        np.testing.assert_allclose(dx, numeric_grad(loss, x), rtol=1e-5, atol=1e-8)
        w1 = ffn.linear1.weight
        ffn.zero_grad()
        ffn.forward(x, training=False)
        ffn.backward(dout)
        np.testing.assert_allclose(ffn.linear1.grads["weight"], numeric_grad(loss, w1), rtol=1e-5, atol=1e-8)


class TestMultiHeadAttention:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        attn = MultiHeadAttention(8, 2, dropout=0.0, rng=rng)
        q = rng.normal(size=(2, 5, 8))
        kv = rng.normal(size=(2, 7, 8))
        out = attn.forward(q, kv, mask=None, training=False)
        assert out.shape == (2, 5, 8)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(10, 3, dropout=0.0, rng=np.random.default_rng(0))

    def test_self_attention_gradcheck(self):
        rng = np.random.default_rng(4)
        attn = MultiHeadAttention(6, 2, dropout=0.0, rng=rng)
        x = rng.normal(size=(2, 4, 6))
        dout = rng.normal(size=(2, 4, 6))

        def loss():
            return float((attn.forward(x, x, None, training=False) * dout).sum())

        attn.zero_grad()
        attn.forward(x, x, None, training=False)
        dq, dkv = attn.backward(dout)
        np.testing.assert_allclose(dq + dkv, numeric_grad(loss, x), rtol=1e-5, atol=1e-8)

    def test_cross_attention_gradcheck(self):
        rng = np.random.default_rng(5)
        attn = MultiHeadAttention(6, 2, dropout=0.0, rng=rng)
        q = rng.normal(size=(1, 3, 6))
        kv = rng.normal(size=(1, 5, 6))
        dout = rng.normal(size=(1, 3, 6))

        def loss():
            return float((attn.forward(q, kv, None, training=False) * dout).sum())

        attn.zero_grad()
        attn.forward(q, kv, None, training=False)
        dq, dkv = attn.backward(dout)
        np.testing.assert_allclose(dq, numeric_grad(loss, q), rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(dkv, numeric_grad(loss, kv), rtol=1e-5, atol=1e-8)

    def test_weight_gradcheck(self):
        rng = np.random.default_rng(6)
        attn = MultiHeadAttention(4, 2, dropout=0.0, rng=rng)
        x = rng.normal(size=(1, 3, 4))
        dout = rng.normal(size=(1, 3, 4))

        def loss():
            return float((attn.forward(x, x, None, training=False) * dout).sum())

        attn.zero_grad()
        attn.forward(x, x, None, training=False)
        attn.backward(dout)
        for name, layer in (("w_q", attn.w_q), ("w_o", attn.w_o)):
            np.testing.assert_allclose(
                layer.grads["weight"], numeric_grad(loss, layer.weight), rtol=1e-5, atol=1e-8
            )

    def test_mask_blocks_positions(self):
        rng = np.random.default_rng(7)
        attn = MultiHeadAttention(4, 1, dropout=0.0, rng=rng)
        q = rng.normal(size=(1, 2, 4))
        kv_a = rng.normal(size=(1, 3, 4))
        kv_b = kv_a.copy()
        kv_b[0, 2] += 100.0  # perturb the masked key/value
        mask = padding_mask(np.array([[False, False, True]]))
        out_a = attn.forward(q, kv_a, mask, training=False)
        out_b = attn.forward(q, kv_b, mask, training=False)
        np.testing.assert_allclose(out_a, out_b, atol=1e-10)
