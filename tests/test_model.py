"""Fusion head: feature concatenation, the FC stack, losses, prediction."""

import hashlib

import numpy as np
import pytest

from dfsn.autodiff import ShapeError, Tensor, backward, zero_grads
from dfsn.gradcheck import grad_check
from dfsn.image import ConvLayerSpec, ConvStackConfig, encode_image
from dfsn.model import (MODALITIES, FusionConfig, ModelSample, batch_loss,
                        empty_model, encode_inputs, forward, fusion_preset,
                        head_logits, init_model, predict)
from dfsn.text import EmbeddingTable, TextConfig, encode_sentence_matrix


def micro_config(modality="fused", dtype="float64"):
    """Much smaller than the tiny preset; full-element grad checks stay cheap."""
    image = ConvStackConfig(
        layers=(
            ConvLayerSpec(2, 3, stride=1, pad=1, has_lrn=True, pool_window=2, pool_stride=2),
            ConvLayerSpec(2, 3, stride=1, pad=1, has_lrn=True, pool_window=2, pool_stride=2),
            ConvLayerSpec(3, 3, stride=1, pad=1),
            ConvLayerSpec(3, 3, stride=1, pad=1),
            ConvLayerSpec(3, 3, stride=1, pad=1, pool_window=2, pool_stride=2),
        ),
        input_side=8,
        preset="micro",
    )
    text = TextConfig(dim=6, max_len=12, widths=(2, 3), filters_per_width=1)
    return FusionConfig(image=image if modality != "text" else None,
                        text=text if modality != "image" else None,
                        hidden1=5, hidden2=4, dtype=dtype)


def micro_sample(seed=0, label=1):
    rng = np.random.default_rng(seed)
    image = rng.uniform(-0.5, 0.5, (3, 8, 8))
    tokens = ["red", "green", "blue", "cyan", "magenta"][: int(rng.integers(3, 6))]
    return ModelSample(image=image, tokens=tokens, label=label, id=f"s{seed}")


class TestInitAndEmptyModel:
    # sha256 over (name, float32 bytes) of every tensor, in checkpoint order;
    # any change to the init draws or their order changes these
    INIT_SHA256 = {
        "fused": "e42d76055456751c16c40d7f30d8f6f0a34d6117c93b0c156253b5dda0f90263",
        "image": "7f7365ce99b0d7a2480d8459bd37e5989473991d272b42b274815561380c68db",
        "text": "549d6bfad0969958b21674f8467fc1d4235d0f04f0fc25b6f300486ba2f45ec4",
    }

    @pytest.mark.parametrize("modality", MODALITIES)
    def test_init_is_pinned(self, modality):
        digest = hashlib.sha256()
        params = init_model(fusion_preset("tiny", modality=modality), seed=0)
        for name, t in params.named_tensors().items():
            digest.update(name.encode())
            digest.update(t.values.tobytes())
        assert digest.hexdigest() == self.INIT_SHA256[modality]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("modality", MODALITIES)
    def test_empty_is_init_layout_in_zeros(self, modality, dtype):
        config = fusion_preset("tiny", modality=modality, dtype=dtype)
        empty = empty_model(config).named_tensors()
        init = init_model(config, seed=3).named_tensors()
        assert list(empty) == list(init)
        for name, t in empty.items():
            assert t.shape == init[name].shape, name
            assert t.dtype == init[name].dtype == np.dtype(dtype), name
            assert t.requires_grad
            assert not t.values.any(), name

    @pytest.mark.parametrize("preset", ["tiny", "full"])
    @pytest.mark.parametrize("modality", MODALITIES)
    def test_param_shapes_list_the_built_tensors(self, preset, modality):
        config = fusion_preset(preset, modality=modality)
        built = [t.shape for t in empty_model(config).named_tensors().values()]
        assert built == config.param_shapes()

    def test_empty_makes_no_random_draws(self, monkeypatch):
        def no_draws(*_):
            raise AssertionError("random generator created")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        empty_model(fusion_preset("tiny"))


class TestEncodeInputs:
    def test_rows_are_image_block_then_text_block_and_both_get_gradients(self):
        config = micro_config()
        params = init_model(config, seed=2)
        table = EmbeddingTable(dim=config.text.dim, fallback_seed=0)
        samples = [micro_sample(seed=s) for s in (1, 2)]
        images, token_lists = [s.image for s in samples], [s.tokens for s in samples]

        def branches():
            return (encode_image(np.stack(images), params.image_params),
                    encode_sentence_matrix(token_lists, table, params.text_params))

        x = encode_inputs(images, token_lists, params, table)
        x_i, x_t = branches()
        assert x.shape == (2, config.feature_size)
        for row, image_row, text_row in zip(x.values, x_i.values, x_t.values):
            assert np.array_equal(row, np.concatenate([image_row, text_row]))

        # the fused gradient splits back: each branch gets what its own block's
        # slice of the projection gives it
        proj = np.random.default_rng(3).uniform(-1, 1, x.shape)
        backward((x * Tensor(proj)).sum())
        branch_tensors = {**params.image_params.named_tensors(),
                          **params.text_params.named_tensors()}
        fused_grads = {name: t.grad for name, t in branch_tensors.items()}
        zero_grads(params.tensors())
        x_i, x_t = branches()
        width = config.image.feature_size
        backward((x_i * Tensor(proj[:, :width])).sum())
        backward((x_t * Tensor(proj[:, width:])).sum())
        for name, t in branch_tensors.items():
            assert fused_grads[name] is not None and fused_grads[name].any(), name
            assert np.array_equal(fused_grads[name], t.grad), name


class TestForward:
    def test_zero_model_gives_uniform_distribution(self):
        params = empty_model(micro_config())
        x = Tensor(np.zeros((1, params.config.feature_size)))
        probs = forward(x, params)
        assert np.allclose(probs, [0.5, 0.5])

    def test_distribution_sums_to_one(self):
        params = init_model(micro_config(), seed=1)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = Tensor(rng.uniform(-1, 1, (1, params.config.feature_size)))
            probs = forward(x, params)
            assert abs(probs.sum() - 1.0) < 1e-6
            assert np.all(probs > 0) and np.all(probs < 1)

    def test_fc3_bias_shift_invariance(self):
        params = init_model(micro_config(), seed=3)
        x = Tensor(np.random.default_rng(4).uniform(-1, 1, (1, params.config.feature_size)))
        before = forward(x, params)
        params.head.biases[3].values[...] += 7.5
        after = forward(x, params)
        assert np.allclose(before, after, atol=1e-12)

    def test_argmax_matches_raw_logits(self):
        params = init_model(micro_config(), seed=5)
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = Tensor(rng.uniform(-1, 1, (1, params.config.feature_size)))
            logits = head_logits(x, params).values
            assert np.argmax(forward(x, params)) == np.argmax(logits)

    def test_scaling_fc3_keeps_argmax(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            params = init_model(micro_config(), seed=seed)
            x = Tensor(rng.uniform(-1, 1, (1, params.config.feature_size)))
            before = int(np.argmax(forward(x, params)))
            params.head.weights[3].values[...] *= 2.0
            params.head.biases[3].values[...] *= 2.0
            after = int(np.argmax(forward(x, params)))
            assert before == after

    def test_rows_are_independent(self):
        params = init_model(micro_config(), seed=2)
        rows = np.random.default_rng(8).uniform(-1, 1, (3, params.config.feature_size))
        batched = forward(Tensor(rows), params)
        for i, row in enumerate(rows):
            assert np.allclose(batched[i], forward(Tensor(row[None, :]), params)[0], atol=1e-12)

    def test_width_mismatch_reported(self):
        params = init_model(micro_config(), seed=0)
        with pytest.raises(ShapeError):
            head_logits(Tensor(np.zeros((1, params.config.feature_size + 1))), params)


class TestLosses:
    def test_zero_model_loss_is_log_two(self):
        config = micro_config()
        params = empty_model(config)
        table = EmbeddingTable(dim=config.text.dim, fallback_seed=0)
        loss = batch_loss([micro_sample(label=0)], params, table)
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_loss_finite_positive_for_random_weights(self):
        config = micro_config()
        table = EmbeddingTable(dim=config.text.dim, fallback_seed=0)
        for seed in range(5):
            params = init_model(config, seed=seed)
            loss = batch_loss([micro_sample(seed=seed, label=seed % 2)], params, table).item()
            assert np.isfinite(loss) and loss > 0.0

    def test_bad_label_rejected(self):
        config = micro_config()
        params = empty_model(config)
        table = EmbeddingTable(dim=config.text.dim)
        with pytest.raises(ValueError):
            batch_loss([micro_sample(label=2)], params, table)

    def test_batch_of_one_equals_sample_loss(self):
        config = micro_config()
        params = init_model(config, seed=8)
        table = EmbeddingTable(dim=config.text.dim, fallback_seed=0)
        s = micro_sample(seed=1)
        # the one sample's cross-entropy, computed by hand from its logits
        logits = head_logits(encode_inputs([s.image], [s.tokens], params, table), params).values[0]
        by_hand = np.log(np.exp(logits).sum()) - logits[s.label]
        assert batch_loss([s], params, table).item() == pytest.approx(by_hand, rel=1e-12)

    def test_duplicated_sample_leaves_mean_unchanged(self):
        config = micro_config()
        params = init_model(config, seed=9)
        table = EmbeddingTable(dim=config.text.dim, fallback_seed=0)
        s = micro_sample(seed=2)
        once = batch_loss([s], params, table).item()
        twice = batch_loss([s, s], params, table).item()
        assert twice == pytest.approx(once, rel=1e-12)

    def test_mean_of_hand_computed_sample_losses(self):
        config = micro_config()
        params = init_model(config, seed=10)
        table = EmbeddingTable(dim=config.text.dim, fallback_seed=0)
        batch = [micro_sample(seed=i, label=i % 2) for i in range(3)]
        individual = [batch_loss([s], params, table).item() for s in batch]
        assert batch_loss(batch, params, table).item() == pytest.approx(
            float(np.mean(individual)), rel=1e-12)

    def test_empty_batch_rejected(self):
        params = empty_model(micro_config())
        with pytest.raises(ValueError):
            batch_loss([], params, None)

    def test_gradient_flows_to_both_branches(self):
        config = micro_config()
        params = init_model(config, seed=11)
        table = EmbeddingTable(dim=config.text.dim, fallback_seed=0)
        zero_grads(params.tensors())
        backward(batch_loss([micro_sample(seed=3)], params, table))
        image_norm = sum(float(np.abs(t.grad).sum())
                         for t in params.image_params.named_tensors().values()
                         if t.grad is not None)
        text_norm = sum(float(np.abs(t.grad).sum())
                        for t in params.text_params.named_tensors().values()
                        if t.grad is not None)
        assert image_norm > 0.0
        assert text_norm > 0.0


class TestModalityVariants:
    @pytest.mark.parametrize("modality", MODALITIES)
    def test_preset_keeps_only_the_used_branches(self, modality):
        config = fusion_preset("tiny", modality=modality)
        assert (config.image is not None) == (modality != "text")
        assert (config.text is not None) == (modality != "image")
        assert config.modality == modality
        assert micro_config(modality).modality == modality

    def test_unknown_modality_rejected(self):
        with pytest.raises(ValueError, match="audio"):
            fusion_preset("tiny", modality="audio")

    def test_config_without_branches_rejected(self):
        with pytest.raises(ValueError, match="branch"):
            FusionConfig(image=None, text=None)

    def test_image_only_has_no_text_params(self):
        params = init_model(micro_config(modality="image"), seed=0)
        assert params.text_params is None
        assert params.config.feature_size == params.config.image.feature_size

    def test_text_only_has_no_image_params(self):
        params = init_model(micro_config(modality="text"), seed=0)
        assert params.image_params is None
        assert params.config.feature_size == params.config.text.feature_size

    def test_single_modality_losses_run(self):
        table = EmbeddingTable(dim=6, fallback_seed=0)
        for modality in ("image", "text"):
            params = init_model(micro_config(modality=modality), seed=1)
            loss = batch_loss([micro_sample(seed=4)], params, table).item()
            assert np.isfinite(loss)

    def test_fused_size_matches_branch_sum(self):
        cfg = micro_config()
        assert cfg.feature_size == cfg.image.feature_size + cfg.text.feature_size


class TestPredict:
    def test_zero_model_ties_to_label_zero(self):
        config = micro_config(dtype="float32")
        params = empty_model(config)
        table = EmbeddingTable(dim=config.text.dim)
        pixels = np.random.default_rng(0).integers(0, 256, (10, 12, 3)).astype(np.uint8)
        result = predict(pixels, "some words here", params, table)
        assert result.label == 0
        assert result.p_neg == pytest.approx(0.5)
        assert result.p_pos == pytest.approx(0.5)

    def test_prediction_deterministic(self):
        config = micro_config(dtype="float32")
        params = init_model(config, seed=12)
        table = EmbeddingTable(dim=config.text.dim, fallback_seed=0)
        pixels = np.random.default_rng(1).integers(0, 256, (9, 9, 3)).astype(np.uint8)
        a = predict(pixels, "identical inputs", params, table)
        b = predict(pixels, "identical inputs", params, table)
        assert (a.label, a.p_neg, a.p_pos) == (b.label, b.p_neg, b.p_pos)


class TestEndToEndGradients:
    def test_full_micro_model_matches_finite_differences(self):
        config = micro_config()
        params = init_model(config, seed=13)
        table = EmbeddingTable(dim=config.text.dim, fallback_seed=0)
        sample = micro_sample(seed=5)

        def fn(*_):
            return batch_loss([sample], params, table)

        report = grad_check(fn, params.tensors(), eps=1e-3, tol=1e-4)
        assert report.passed, str(report)
        # the probed set must retain real coverage after switch-point skips
        assert report.compared > 0.7 * (report.compared + report.skipped)

    def test_batch_of_two_matches_finite_differences(self):
        # one sentence shorter than the widest filter, one longer: the batch
        # graph pools ragged row segments of different lengths
        config = micro_config()
        params = init_model(config, seed=14)
        table = EmbeddingTable(dim=config.text.dim, fallback_seed=0)
        rng = np.random.default_rng(6)
        batch = [ModelSample(image=rng.uniform(-0.5, 0.5, (3, 8, 8)), tokens=tokens,
                             label=label)
                 for tokens, label in ((["red", "green", "blue", "cyan", "magenta"], 1),
                                       (["teal", "rose"], 0))]

        def fn(*_):
            return batch_loss(batch, params, table)

        report = grad_check(fn, params.tensors(), eps=1e-3, tol=1e-4)
        assert report.passed, str(report)
        assert report.compared >= 0.5 * (report.compared + report.skipped)
