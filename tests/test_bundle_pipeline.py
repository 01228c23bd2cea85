"""Tests of the SizingModel bundle persistence and the training pipeline."""

import numpy as np
import pytest

from repro.core import PipelineConfig, SizingModel, train_sizing_model
from repro.core.pipeline import BENCHMARK_CONFIG


TINY = PipelineConfig(
    designs_per_topology=(("5T-OTA", 25),),
    epochs=2,
    d_model=32,
    n_heads=4,
    d_ff=48,
    dropout=0.0,
    num_merges=150,
    encoder_max_paths=1,
    learning_rate=1e-3,
    batch_size=8,
    dtype="float32",
    seed=5,
)


@pytest.fixture(scope="module")
def tiny_artifacts(tmp_path_factory):
    cache = tmp_path_factory.mktemp("pipeline_cache")
    return train_sizing_model(TINY, cache_dir=cache), cache


class TestPipeline:
    def test_produces_model_and_splits(self, tiny_artifacts):
        artifacts, _ = tiny_artifacts
        assert len(artifacts.datasets["5T-OTA"]) == 25
        assert len(artifacts.train_records["5T-OTA"]) == 20
        assert len(artifacts.val_records["5T-OTA"]) == 5
        assert artifacts.training_seconds > 0
        assert len(artifacts.history_train_loss) == TINY.epochs

    def test_loss_decreases(self, tiny_artifacts):
        artifacts, _ = tiny_artifacts
        assert artifacts.history_train_loss[-1] < artifacts.history_train_loss[0]

    def test_cache_roundtrip(self, tiny_artifacts):
        artifacts, cache = tiny_artifacts
        reloaded = train_sizing_model(TINY, cache_dir=cache)
        assert len(reloaded.datasets["5T-OTA"]) == 25
        assert reloaded.training_seconds == pytest.approx(artifacts.training_seconds)
        # Same prediction from the reloaded transformer.
        from repro.core import DesignSpec

        record = artifacts.val_records["5T-OTA"][0]
        spec = DesignSpec(record.gain_db, record.f3db_hz, record.ugf_hz)
        _, text_a = artifacts.model.predict_params("5T-OTA", spec)
        _, text_b = reloaded.model.predict_params("5T-OTA", spec)
        assert text_a == text_b

    def test_cache_key_stable_and_distinct(self):
        assert TINY.cache_key() == TINY.cache_key()
        other = PipelineConfig(epochs=TINY.epochs + 1)
        assert TINY.cache_key() != other.cache_key()
        assert BENCHMARK_CONFIG.cache_key() != TINY.cache_key()

    def test_float32_model(self, tiny_artifacts):
        artifacts, _ = tiny_artifacts
        transformer = artifacts.model.transformer
        params = dict(transformer.named_parameters())
        assert all(p.dtype == np.float32 for p in params.values())
        # The activations stay float32 past the first attention as well.
        rng = np.random.default_rng(0)
        src = rng.integers(4, transformer.config.vocab_size, size=(2, 7))
        tgt = rng.integers(4, transformer.config.vocab_size, size=(2, 5))
        src_pad = np.zeros_like(src, dtype=bool)
        src_pad[1, 5:] = True
        tgt_pad = np.zeros_like(tgt, dtype=bool)
        assert transformer.encode(src, src_pad, training=False).dtype == np.float32
        logits = transformer.forward(src, tgt, src_pad, tgt_pad, training=False)
        assert logits.dtype == np.float32


class TestBundlePersistence:
    def test_save_load_bundle(self, tiny_artifacts, tmp_path):
        artifacts, _ = tiny_artifacts
        path = tmp_path / "bundle"
        artifacts.model.save(path)
        restored = SizingModel.load(path)
        assert set(restored.luts) == set(artifacts.model.luts)
        assert restored.bpe.merges == artifacts.model.bpe.merges
        assert restored.vocab.id_to_token == artifacts.model.vocab.id_to_token
        from repro.core import DesignSpec

        record = artifacts.val_records["5T-OTA"][0]
        spec = DesignSpec(record.gain_db, record.f3db_hz, record.ugf_hz)
        _, text_a = artifacts.model.predict_params("5T-OTA", spec)
        _, text_b = restored.predict_params("5T-OTA", spec)
        assert text_a == text_b

    def test_lut_lookup_by_group(self, tiny_artifacts):
        artifacts, _ = tiny_artifacts
        from repro.topologies import topology_by_name

        topology = topology_by_name("5T-OTA")
        lut_p = artifacts.model.lut_for(topology, "M1")
        lut_n = artifacts.model.lut_for(topology, "M3")
        assert lut_p.tech.polarity == -1
        assert lut_n.tech.polarity == 1


FULL_PATHS_TINY = PipelineConfig(
    designs_per_topology=(("5T-OTA", 20),),
    epochs=2,
    d_model=32,
    n_heads=4,
    d_ff=48,
    dropout=0.0,
    num_merges=150,
    encoder_max_paths=1,
    decoder_format="full_paths",
    learning_rate=1e-3,
    batch_size=8,
    dtype="float32",
    seed=9,
)


class TestFullPathsPipeline:
    """The paper-faithful decoder format must train end to end."""

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("fp_cache")
        return train_sizing_model(FULL_PATHS_TINY, cache_dir=cache)

    def test_decoder_targets_are_paths(self, artifacts):
        builder = artifacts.model.builder("5T-OTA")
        record = artifacts.train_records["5T-OTA"][0]
        text = builder.decoder_text(record.device_params)
        assert "Iout" in text or "Vout" in text  # path vertices present
        assert "|" in text  # completeness block

    def test_ground_truth_roundtrip_through_format(self, artifacts):
        builder = artifacts.model.builder("5T-OTA")
        record = artifacts.train_records["5T-OTA"][0]
        parsed = builder.parse_decoder_text(builder.decoder_text(record.device_params))
        assert parsed.complete
        for group, params in record.device_params.items():
            for key, value in params.items():
                assert parsed.values[group][key] == pytest.approx(value, rel=6e-3)

    def test_training_ran(self, artifacts):
        assert len(artifacts.history_train_loss) == FULL_PATHS_TINY.epochs
        assert artifacts.history_train_loss[-1] < artifacts.history_train_loss[0]

    def test_inference_produces_text(self, artifacts):
        from repro.core import DesignSpec

        record = artifacts.val_records["5T-OTA"][0]
        spec = DesignSpec(record.gain_db, record.f3db_hz, record.ugf_hz)
        _, text = artifacts.model.predict_params("5T-OTA", spec)
        assert isinstance(text, str) and len(text) > 0
