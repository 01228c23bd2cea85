"""Tests of the full transformer model, loss, optimizer and trainer."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.bundle import SizingModel
from repro.nlp import Vocabulary
from repro.transformer import (
    Adam,
    LRScheduler,
    SequencePair,
    Trainer,
    Transformer,
    TransformerConfig,
    WeightedCrossEntropy,
    make_batches,
    numeric_token_weights,
    padding_mask,
)

from tests.scalar_reference import greedy_decode_naive, greedy_decode_stepwise


def tiny_config(**overrides):
    base = dict(
        vocab_size=12,
        d_model=16,
        n_heads=2,
        n_encoder_layers=1,
        n_decoder_layers=1,
        d_ff=24,
        dropout=0.0,
        max_len=20,
        seed=0,
    )
    base.update(overrides)
    return TransformerConfig(**base)


@pytest.fixture
def tiny_model():
    return Transformer(tiny_config())


def random_batch(rng, batch=2, t_src=5, t_tgt=4, vocab=12):
    src = rng.integers(4, vocab, size=(batch, t_src))
    tgt_in = rng.integers(4, vocab, size=(batch, t_tgt))
    tgt_out = rng.integers(4, vocab, size=(batch, t_tgt))
    src_pad = np.zeros((batch, t_src), dtype=bool)
    tgt_pad = np.zeros((batch, t_tgt), dtype=bool)
    return src, tgt_in, tgt_out, src_pad, tgt_pad


class TestModelForward:
    def test_logit_shape(self, tiny_model):
        rng = np.random.default_rng(0)
        src, tgt_in, _, src_pad, tgt_pad = random_batch(rng)
        logits = tiny_model.forward(src, tgt_in, src_pad, tgt_pad, training=False)
        assert logits.shape == (2, 4, 12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TransformerConfig(vocab_size=12, d_model=15, n_heads=2)
        with pytest.raises(ValueError):
            TransformerConfig(vocab_size=2)

    def test_length_limit_enforced(self, tiny_model):
        rng = np.random.default_rng(0)
        src = rng.integers(4, 12, size=(1, 25))
        with pytest.raises(ValueError):
            tiny_model.encode(src, np.zeros_like(src, dtype=bool), training=False)

    def test_causal_masking_no_future_leak(self, tiny_model):
        """Changing a later decoder input must not affect earlier logits."""
        rng = np.random.default_rng(1)
        src, tgt_in, _, src_pad, tgt_pad = random_batch(rng)
        logits_a = tiny_model.forward(src, tgt_in, src_pad, tgt_pad, training=False)
        tgt_mod = tgt_in.copy()
        tgt_mod[:, -1] = (tgt_mod[:, -1] + 1) % 12
        logits_b = tiny_model.forward(src, tgt_mod, src_pad, tgt_pad, training=False)
        np.testing.assert_allclose(logits_a[:, :-1], logits_b[:, :-1], atol=1e-10)

    def test_source_padding_invariance(self, tiny_model):
        """Padding the source with junk must not change the output."""
        rng = np.random.default_rng(2)
        src, tgt_in, _, src_pad, tgt_pad = random_batch(rng, batch=1)
        logits_a = tiny_model.forward(src, tgt_in, src_pad, tgt_pad, training=False)
        src_padded = np.concatenate([src, rng.integers(4, 12, size=(1, 3))], axis=1)
        pad_padded = np.concatenate([src_pad, np.ones((1, 3), dtype=bool)], axis=1)
        logits_b = tiny_model.forward(src_padded, tgt_in, pad_padded, tgt_pad, training=False)
        np.testing.assert_allclose(logits_a, logits_b, atol=1e-8)

    def test_full_model_gradcheck(self, tiny_model):
        rng = np.random.default_rng(3)
        src, tgt_in, tgt_out, src_pad, tgt_pad = random_batch(rng)
        loss_fn = WeightedCrossEntropy(pad_id=0)

        def compute_loss():
            logits = tiny_model.forward(src, tgt_in, src_pad, tgt_pad, training=False)
            return loss_fn(logits, tgt_out).loss

        tiny_model.zero_grad()
        logits = tiny_model.forward(src, tgt_in, src_pad, tgt_pad, training=False)
        result = loss_fn(logits, tgt_out)
        tiny_model.backward(result.dlogits)
        grads = dict(tiny_model.named_gradients())
        params = dict(tiny_model.named_parameters())

        rng2 = np.random.default_rng(11)
        eps = 1e-6
        for name in [
            "src_embed.table",
            "tgt_embed.table",
            "encoder0.self_attn.w_v.weight",
            "decoder0.cross_attn.w_q.weight",
            "decoder0.ffn.linear2.weight",
            "out_proj.bias",
        ]:
            flat = params[name].reshape(-1)
            gflat = grads[name].reshape(-1)
            for _ in range(3):
                i = int(rng2.integers(0, flat.size))
                original = flat[i]
                flat[i] = original + eps
                plus = compute_loss()
                flat[i] = original - eps
                minus = compute_loss()
                flat[i] = original
                numeric = (plus - minus) / (2 * eps)
                assert gflat[i] == pytest.approx(numeric, rel=1e-4, abs=1e-9), name


@pytest.fixture
def float32_model():
    """An untrained float32 model whose greedy decodes already differ
    between the sources used below (two layers on each side)."""
    config = tiny_config(
        vocab_size=14, max_len=40, dtype="float32", n_encoder_layers=2, n_decoder_layers=2
    )
    return Transformer(config)


def right_padded(sources, width):
    src = np.zeros((len(sources), width), dtype=np.int64)
    src_pad = np.ones_like(src, dtype=bool)
    for row, ids in enumerate(sources):
        src[row, : len(ids)] = ids
        src_pad[row, : len(ids)] = False
    return src, src_pad


class TestDtype:
    def test_float32_training_forward_stays_float32(self):
        """Dropout does not promote a float32 model's activations."""
        model = Transformer(tiny_config(dtype="float32", dropout=0.1))
        src = np.random.default_rng(3).integers(4, 12, size=(2, 5))
        tgt = np.random.default_rng(4).integers(4, 12, size=(2, 4))
        src_pad = np.zeros_like(src, dtype=bool)
        tgt_pad = np.zeros_like(tgt, dtype=bool)
        for training in (True, False):
            logits = model.forward(src, tgt, src_pad, tgt_pad, training=training)
            assert logits.dtype == np.float32


class TestDecoding:
    def test_incremental_matches_naive(self, float32_model):
        model = Transformer(tiny_config(n_encoder_layers=2, n_decoder_layers=2))
        rng = np.random.default_rng(4)
        src = rng.integers(4, 12, size=(3, 6))
        src_pad = np.zeros_like(src, dtype=bool)
        src_pad[2, 4:] = True
        fast = model.greedy_decode(src, src_pad, bos_id=1, eos_id=2, max_len=15)
        naive = greedy_decode_naive(model, src, src_pad, bos_id=1, eos_id=2, max_len=15)
        assert fast == naive
        # float32, three distinct source lengths: the per-length encoder
        # and the padded reference agree.
        model = float32_model
        sources = [(10, 9, 6, 7, 4, 4), (5, 12, 10), (13, 6, 12, 10, 4), (12, 9, 4)]
        src, src_pad = right_padded(sources, 6)
        memory = model.encode_by_length(src, src_pad)
        padded = model.encode(src, src_pad, training=False)
        for row, ids in enumerate(sources):
            n = len(ids)
            np.testing.assert_allclose(memory[row, :n], padded[row, :n], rtol=1e-5, atol=1e-5)
        fast = model.greedy_decode(src, src_pad, bos_id=1, eos_id=2)
        naive = greedy_decode_naive(model, src, src_pad, bos_id=1, eos_id=2)
        assert fast == naive
        assert len(set(map(tuple, fast))) == len(sources)  # decodes follow the source

    def test_short_row_unaffected_by_long_neighbour(self, float32_model):
        """A short source gets the same encoder memory, bit for bit, alone
        as next to a much longer one: it is encoded at its own length, not
        the batch's.  It then decodes to the same ids."""
        model = float32_model
        short = np.array([[5, 12, 10]])
        no_pad = np.zeros_like(short, dtype=bool)
        long = np.random.default_rng(7).integers(4, 14, size=36)
        src, src_pad = right_padded([short[0], long], 36)
        memory = model.encode_by_length(src, src_pad)
        assert memory.dtype == np.float32
        alone = model.encode(short, no_pad, training=False)[0]
        assert memory[0, :3].tobytes() == alone.tobytes()
        assert not memory[0, 3:].any()
        together = model.greedy_decode(src, src_pad, 1, 2)
        assert together[0] == model.greedy_decode(short, no_pad, 1, 2)[0]

    def test_mask_free_encode_matches_masked_encode(self, float32_model):
        """Unpadded sources are encoded without a mask, bit for bit as the
        encoder blocks run with the sources' all-zero padding mask."""
        model = float32_model
        src = np.random.default_rng(8).integers(4, 14, size=(3, 11))
        no_pad = np.zeros_like(src, dtype=bool)
        x = model.src_embed.forward(src) * model._scale + model.positional[:11]
        for block in model.encoder_blocks:
            x = block.forward(x, padding_mask(no_pad), training=False)
        assert model.encode(src, no_pad, training=False).tobytes() == x.tobytes()

    # Sources on which the untrained float32 model, given max_len 100,
    # emits token 2 at steps 68, 5, 6 and 10 of four rows and never in the
    # other four, which run all 99 steps (so the caches grow past their
    # first 64 positions before a row leaves); it first emits token 6 at
    # steps 2, 1, 20, 1, 3, 1, 2 and 2, so with EOS 6 the third row decodes
    # alone for its last 17 steps.
    RAGGED_SOURCES = [
        (4, 5, 6, 5, 12, 12, 9, 4, 4, 7),
        (10, 8, 6, 5, 10, 11),
        (5, 8, 7),
        (9, 8, 8, 10, 9, 5, 11, 11, 13, 11),
        (7, 10, 10, 10, 12),
        (13, 4, 4, 13, 13),
        (5, 7, 4, 12, 10),
        (6, 8, 5, 11, 8, 4, 6, 11),
    ]

    @pytest.mark.parametrize(
        "eos_id, lengths",
        [(2, [68, 5, 99, 6, 99, 99, 99, 10]), (6, [2, 1, 20, 1, 3, 1, 2, 2])],
    )
    def test_rows_leaving_at_eos_match_references(self, eos_id, lengths):
        """A row that emits EOS leaves the batch; the rows still decoding
        get the ids of the stepwise decode that keeps every row to the end,
        and of the naive full-prefix decode."""
        config = tiny_config(
            vocab_size=14, max_len=100, dtype="float32", n_encoder_layers=2, n_decoder_layers=2
        )
        model = Transformer(config)  # the float32_model fixture's weights
        src, src_pad = right_padded(self.RAGGED_SOURCES, 10)
        fast = model.greedy_decode(src, src_pad, 1, eos_id)
        assert [len(ids) for ids in fast] == lengths  # 99: cut off at max_len
        assert fast == greedy_decode_stepwise(model, src, src_pad, 1, eos_id)
        assert fast == greedy_decode_naive(model, src, src_pad, 1, eos_id)

    def test_benchmark_bundle_mixed_batch_matches_references(self):
        """The committed benchmark bundle (read-only) on a mixed 5T/CM/2S
        batch of pool specs: the decode's ids equal both references'."""
        root = Path(__file__).resolve().parents[1] / "perfbench" / "data"
        bundle = SizingModel.load(root / "bundle")
        pool = json.loads((root / "pool.json").read_text())["designs"]
        sources = []
        for topology in ("5T-OTA", "CM-OTA", "2S-OTA"):
            builder = bundle.builder(topology)
            for entry in pool[topology][:2]:
                text = builder.encoder_text(entry["gain_db"], entry["f3db_hz"], entry["ugf_hz"])
                sources.append(bundle.vocab.encode(bundle.bpe.encode(text)))
        src, src_pad = right_padded(sources, max(len(ids) for ids in sources))
        src[src_pad] = bundle.vocab.pad_id
        model, bos, eos = bundle.transformer, bundle.vocab.bos_id, bundle.vocab.eos_id
        fast = model.greedy_decode(src, src_pad, bos, eos)
        assert fast == greedy_decode_stepwise(model, src, src_pad, bos, eos)
        assert fast == greedy_decode_naive(model, src, src_pad, bos, eos)
        assert len({len(ids) for ids in fast}) > 1  # rows leave at different steps

    def test_decode_rejects_non_suffix_padding(self, tiny_model):
        src = np.random.default_rng(9).integers(4, 12, size=(2, 5))
        src_pad = np.zeros_like(src, dtype=bool)
        src_pad[1, 1] = True  # a pad in front of real tokens
        with pytest.raises(ValueError, match="suffix"):
            tiny_model.greedy_decode(src, src_pad, 1, 2)
        with pytest.raises(ValueError, match="at least one token"):
            tiny_model.greedy_decode(src, np.ones_like(src_pad), 1, 2)

    def test_decode_respects_max_len(self, tiny_model):
        rng = np.random.default_rng(5)
        src = rng.integers(4, 12, size=(1, 5))
        out = tiny_model.greedy_decode(src, np.zeros_like(src, dtype=bool), 1, 2, max_len=6)
        assert len(out[0]) <= 5

    def test_eos_truncation(self, tiny_model):
        rng = np.random.default_rng(6)
        src = rng.integers(4, 12, size=(2, 5))
        outs = tiny_model.greedy_decode(src, np.zeros_like(src, dtype=bool), 1, 2)
        for row in outs:
            assert 2 not in row


class TestPersistence:
    def test_save_load_roundtrip(self, tiny_model, tmp_path):
        path = tmp_path / "model.npz"
        tiny_model.save(path)
        restored = Transformer.load(path)
        assert restored.config == tiny_model.config
        rng = np.random.default_rng(7)
        src, tgt_in, _, src_pad, tgt_pad = random_batch(rng)
        a = tiny_model.forward(src, tgt_in, src_pad, tgt_pad, training=False)
        b = restored.forward(src, tgt_in, src_pad, tgt_pad, training=False)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_state_dict_shape_mismatch_rejected(self, tiny_model):
        state = tiny_model.state_dict()
        state["out_proj.bias"] = np.zeros(3)
        with pytest.raises(ValueError):
            tiny_model.load_state_dict(state)


class TestLoss:
    def test_matches_manual_cross_entropy(self):
        logits = np.log(np.array([[[0.7, 0.2, 0.1]]]))
        targets = np.array([[0]])
        loss_fn = WeightedCrossEntropy(pad_id=2)
        result = loss_fn(logits, targets)
        assert result.loss == pytest.approx(-np.log(0.7), rel=1e-6)

    def test_pad_positions_ignored(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(1, 3, 5))
        loss_fn = WeightedCrossEntropy(pad_id=0)
        full = loss_fn(logits, np.array([[1, 2, 0]]))
        assert full.token_count == 2
        np.testing.assert_allclose(full.dlogits[0, 2], 0.0)

    def test_class_weights_shift_loss(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(1, 2, 4))
        targets = np.array([[1, 2]])
        plain = WeightedCrossEntropy(pad_id=0)(logits, targets).loss
        weights = np.ones(4)
        weights[1] = 10.0
        weighted = WeightedCrossEntropy(class_weights=weights, pad_id=0)(logits, targets).loss
        assert weighted != pytest.approx(plain)

    def test_numeric_token_weights_selection(self):
        vocab = Vocabulary.from_tokens(["1", ".", "-", "gmM1=", "uS ", "a"])
        weights = numeric_token_weights(vocab, numeric_weight=1.2)
        assert weights[vocab.token_to_id["1"]] == pytest.approx(1.2)
        assert weights[vocab.token_to_id["."]] == pytest.approx(1.2)
        assert weights[vocab.token_to_id["gmM1="]] == pytest.approx(1.0)
        assert weights[vocab.token_to_id["a"]] == pytest.approx(1.0)

    def test_float32_large_logit_gap_gives_finite_loss(self):
        """A float32 target probability that underflows to 0 is floored at a
        value float32 can hold, so the loss stays finite."""
        logits = np.array([[[0.0, 200.0, 0.0]]], dtype=np.float32)
        result = WeightedCrossEntropy(pad_id=2)(logits, np.array([[0]]))
        assert np.isfinite(result.loss)
        assert result.loss > 80.0
        assert np.isfinite(result.dlogits).all()

    def test_gradient_direction(self):
        logits = np.zeros((1, 1, 3))
        loss_fn = WeightedCrossEntropy(pad_id=2)
        result = loss_fn(logits, np.array([[1]]))
        assert result.dlogits[0, 0, 1] < 0
        assert result.dlogits[0, 0, 0] > 0


class TestOptimizer:
    def test_adam_minimizes_quadratic(self):
        from repro.transformer import Linear

        rng = np.random.default_rng(10)
        layer = Linear(1, 1, rng)
        optimizer = Adam(layer, lr=0.05)
        x = np.array([[1.0]])
        for _ in range(600):
            layer.zero_grad()
            out = layer.forward(x)
            # Loss = (out - 3)^2
            layer.backward(2.0 * (out - 3.0))
            optimizer.step()
        assert float(layer.forward(x)[0, 0]) == pytest.approx(3.0, abs=0.02)

    def test_gradient_clipping(self):
        from repro.transformer import Linear

        rng = np.random.default_rng(11)
        layer = Linear(2, 2, rng)
        optimizer = Adam(layer, lr=1e-3, grad_clip=1e-3)
        layer.zero_grad()
        layer.forward(np.ones((1, 2)))
        layer.backward(np.full((1, 2), 1e6))
        before = layer.weight.copy()
        optimizer.step()
        # Clipped update magnitude must be bounded by lr scale.
        assert np.abs(layer.weight - before).max() < 1e-2

    def test_plateau_scheduler_decays(self):
        from repro.transformer import Linear

        layer = Linear(1, 1, np.random.default_rng(0))
        optimizer = Adam(layer, lr=1e-3)
        scheduler = LRScheduler(optimizer, mode="plateau", decay=0.5, patience=1)
        scheduler.step(1.0)
        assert optimizer.lr == pytest.approx(1e-3)
        scheduler.step(1.0)  # no improvement -> decay
        assert optimizer.lr == pytest.approx(5e-4)

    def test_cosine_scheduler_bounds(self):
        from repro.transformer import Linear

        layer = Linear(1, 1, np.random.default_rng(0))
        optimizer = Adam(layer, lr=1e-3)
        scheduler = LRScheduler(optimizer, mode="cosine", lr_min=1e-6, horizon_epochs=10)
        rates = [scheduler.step(1.0) for _ in range(12)]
        assert rates[-1] == pytest.approx(1e-6, rel=1e-3)
        assert all(r <= 1e-3 + 1e-12 for r in rates)

    def test_unknown_schedule_rejected(self):
        from repro.transformer import Linear

        layer = Linear(1, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            LRScheduler(Adam(layer), mode="bogus")


class TestTrainer:
    def test_make_batches_padding(self):
        pairs = [
            SequencePair(source=(5, 6), target=(7,)),
            SequencePair(source=(5,), target=(7, 8, 9)),
        ]
        batches = make_batches(pairs, batch_size=2, pad_id=0, bos_id=1, eos_id=2)
        assert len(batches) == 1
        batch = batches[0]
        assert batch.src.shape == (2, 2)
        assert batch.tgt_in[0, 0] == 1  # BOS
        assert batch.tgt_out[0, 1] == 2  # EOS after 1-token target
        assert batch.src_pad[1, 1]  # second row padded

    def test_overfits_copy_task(self):
        config = tiny_config(vocab_size=14, max_len=16, seed=2)
        model = Transformer(config)
        trainer = Trainer(
            model,
            WeightedCrossEntropy(pad_id=0),
            pad_id=0,
            bos_id=1,
            eos_id=2,
            lr=3e-3,
            batch_size=8,
            seed=0,
        )
        rng = np.random.default_rng(0)
        pairs = []
        for _ in range(32):
            seq = tuple(int(v) for v in rng.integers(4, 14, size=4))
            pairs.append(SequencePair(source=seq, target=seq))
        history = trainer.fit(pairs, pairs[:8], epochs=25)
        assert history.train_loss[-1] < history.train_loss[0] / 3
        predictions = trainer.predict([pairs[0].source])
        assert tuple(predictions[0]) == pairs[0].target

    def test_evaluate_returns_loss_and_accuracy(self):
        config = tiny_config()
        model = Transformer(config)
        trainer = Trainer(model, WeightedCrossEntropy(pad_id=0), 0, 1, 2)
        pairs = [SequencePair(source=(4, 5), target=(6, 7))]
        loss, accuracy = trainer.evaluate(pairs)
        assert loss > 0
        assert 0.0 <= accuracy <= 1.0
