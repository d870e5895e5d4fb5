"""Training engine: schedule, optimizer, metrics, determinism, learning."""

import tracemalloc

import numpy as np
import pytest

from dfsn import data as dio
from dfsn.autodiff import Tensor
from dfsn.model import ModelSample, fusion_preset, init_model
from dfsn.text import EmbeddingTable, TextConfig
from dfsn.train import (SGD_BLOCK, MetricsReport, TrainConfig, TrainingError, evaluate,
                        lr_at_step, render_history_markdown, sgd_step, train)
from dfsn.model import FusionConfig


def text_only_config(dtype="float64"):
    text = TextConfig(dim=8, max_len=16, widths=(2, 3), filters_per_width=2)
    return FusionConfig(image=None, text=text, hidden1=6, hidden2=4, dtype=dtype)


def polarized_samples(n, seed=0):
    """Linearly separable by construction: one marker word decides the label."""
    rng = np.random.default_rng(seed)
    fillers = ["the", "a", "of", "on", "day", "city"]
    samples = []
    for i in range(n):
        label = i % 2
        tokens = [fillers[int(rng.integers(0, len(fillers)))] for _ in range(6)]
        tokens[int(rng.integers(0, len(tokens)))] = "good" if label else "bad"
        samples.append(ModelSample(image=None, tokens=tokens, label=label))
    return samples


@pytest.fixture(scope="module")
def full_fused(tmp_path_factory):
    """A `full` fused model (init seed 2) and six `gen-data` samples, on which its
    predictions are mixed: 5 positive, 1 negative."""
    config = fusion_preset("full")
    table = EmbeddingTable(dim=config.text.dim, fallback_seed=0)
    out = tmp_path_factory.mktemp("full-data")
    samples = dio.materialize(dio.gen_synthetic(6, seed=3, out_dir=out), out, config, table)
    return init_model(config, seed=2), samples, table


class TestSchedule:
    CFG = TrainConfig()

    def test_initial_rate(self):
        assert lr_at_step(0, self.CFG) == 1e-4

    def test_staircase_holds_before_boundary(self):
        assert lr_at_step(2999, self.CFG) == 1e-4

    def test_first_decay(self):
        assert lr_at_step(3000, self.CFG) == 9.6e-5

    def test_second_decay(self):
        assert lr_at_step(6000, self.CFG) == 9.216e-5

    def test_nonincreasing(self):
        rates = [lr_at_step(s, self.CFG) for s in range(0, 20000, 137)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            lr_at_step(-1, self.CFG)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(initial_lr=0.0)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="initial_lr must be finite"):
                TrainConfig(initial_lr=lr)
        with pytest.raises(ValueError, match="eval_every"):
            TrainConfig(eval_every=-1)
        assert TrainConfig(eval_every=0).eval_every == 0

    @pytest.mark.parametrize("kwargs,error", [
        (dict(batch_size=2.5), TypeError), (dict(batch_size=0), ValueError),
        (dict(decay_every=2.5), TypeError), (dict(decay_every=0), ValueError),
        (dict(epochs=True), TypeError), (dict(epochs=-1), ValueError),
        (dict(eval_every=1.0), TypeError), (dict(seed=-1), ValueError),
        (dict(seed="3"), TypeError),
    ])
    def test_integer_fields_checked(self, kwargs, error):
        with pytest.raises(error):
            TrainConfig(**kwargs)


class TestSgdStep:
    def test_zero_rate_keeps_params(self):
        t = Tensor([1.0, 2.0])
        sgd_step([t], [np.array([5.0, -5.0])], lr=0.0)
        assert t.values.tolist() == [1.0, 2.0]

    def test_single_step_arithmetic(self):
        t = Tensor([1.0])
        sgd_step([t], [np.array([2.0])], lr=0.1)
        assert t.values[0] == pytest.approx(0.8, rel=1e-15)

    def test_two_half_steps_equal_one_full_step(self):
        a = Tensor([1.0])
        b = Tensor([1.0])
        g = np.array([2.0])
        sgd_step([a], [g], lr=0.05)
        sgd_step([a], [g], lr=0.05)
        sgd_step([b], [g], lr=0.1)
        assert a.values[0] == pytest.approx(b.values[0], rel=1e-12)

    def test_none_gradient_skipped(self):
        t = Tensor([3.0])
        sgd_step([t], [None], lr=0.5)
        assert t.values[0] == 3.0

    def test_shape_mismatch_rejected(self):
        from dfsn.autodiff import ShapeError

        with pytest.raises(ShapeError):
            sgd_step([Tensor([1.0, 2.0])], [np.zeros(3)], lr=0.1)

    def test_float32_params_stay_float32(self):
        t = Tensor(np.ones(2, dtype=np.float32))
        sgd_step([t], [np.ones(2)], lr=0.25)
        assert t.values.dtype == np.float32
        assert np.allclose(t.values, 0.75)

    @pytest.mark.parametrize("param_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
    def test_in_place_update_is_bitwise_the_float64_formula(self, param_dtype, grad_dtype):
        rng = np.random.default_rng(11)
        v = rng.standard_normal((17, 5)).astype(param_dtype)
        g = rng.standard_normal((17, 5)).astype(grad_dtype)
        lr = 0.0371
        expect = (v.astype(np.float64) - lr * g.astype(np.float64)).astype(v.dtype)
        t = Tensor(v.copy())
        sgd_step([t], [g], lr=lr)
        assert t.values.dtype == param_dtype
        assert np.array_equal(t.values, expect)

    def test_blocked_update_is_bitwise_the_float64_formula_without_its_temporary(self):
        # eight whole blocks and a partial one, across the rows of a 2-D tensor
        rng = np.random.default_rng(12)
        v = rng.standard_normal((8, SGD_BLOCK + 5)).astype(np.float32)
        g = rng.standard_normal(v.shape).astype(np.float32)
        lr = 0.0371
        expect = (v.astype(np.float64) - lr * g.astype(np.float64)).astype(np.float32)
        t = Tensor(v.copy())
        tracemalloc.start()
        try:
            sgd_step([t], [g], lr=lr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(t.values, expect)
        # the whole-gradient float64 product alone is 2 * g.nbytes
        assert peak < g.nbytes


class TestMetrics:
    def test_hand_counts(self):
        m = MetricsReport(tp=3, fp=1, fn=1, tn=5)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.75)
        assert m.f1 == pytest.approx(0.75)
        assert m.accuracy == pytest.approx(0.8)

    def test_perfect_classifier(self):
        m = MetricsReport(tp=4, fp=0, fn=0, tn=6)
        assert (m.precision, m.recall, m.f1, m.accuracy) == (1.0, 1.0, 1.0, 1.0)

    def test_all_negative_predictor_on_balanced_data(self):
        m = MetricsReport(tp=0, fp=0, fn=5, tn=5)
        assert m.accuracy == pytest.approx(0.5)
        assert m.recall == 0.0
        assert m.precision == 0.0  # no positive predictions: zero denominator
        assert m.f1 == 0.0

    def test_row_formatting(self):
        m = MetricsReport(tp=4, fp=0, fn=0, tn=6)
        assert m.row() == "1.000 1.000 1.000 1.000"

    @pytest.mark.parametrize("tp,fp,fn,tn", [(3, 2, 1, 4), (1, 1, 1, 1), (5, 0, 3, 2),
                                             (2, 4, 1, 3), (7, 1, 2, 0)])
    def test_f1_between_precision_and_recall(self, tp, fp, fn, tn):
        m = MetricsReport(tp=tp, fp=fp, fn=fn, tn=tn)
        assert min(m.precision, m.recall) - 1e-12 <= m.f1 <= max(m.precision, m.recall) + 1e-12


class TestTraining:
    def run_once(self, out_dir=None, epochs=6):
        config = text_only_config()
        samples = polarized_samples(16, seed=1)
        table = EmbeddingTable(dim=config.text.dim, fallback_seed=1)
        params = init_model(config, seed=1)
        cfg = TrainConfig(batch_size=4, initial_lr=0.1, decay_every=10 ** 6,
                          epochs=epochs, seed=1)
        return train(params, samples, cfg, table=table, out_dir=out_dir)

    def test_loss_decreases_on_separable_data(self):
        _, history = self.run_once(epochs=10)
        per_epoch = np.array([s.loss for s in history.steps]).reshape(10, -1).mean(axis=1)
        assert per_epoch[9] < per_epoch[0]

    def test_fixed_seed_reproduces_history_exactly(self):
        _, h1 = self.run_once()
        _, h2 = self.run_once()
        assert h1.to_csv() == h2.to_csv()

    def test_step_numbers_strictly_increase(self):
        _, history = self.run_once()
        steps = [s.step for s in history.steps]
        assert steps == sorted(set(steps))

    def test_checkpoints_and_history_written(self, tmp_path):
        self.run_once(out_dir=tmp_path)
        assert (tmp_path / "checkpoint-final.dfsn").exists()
        assert (tmp_path / "checkpoint-best.dfsn").exists()
        csv_text = (tmp_path / "history.csv").read_text()
        assert csv_text.startswith("step,0,")
        assert "epoch,1,train," in csv_text

    def test_non_finite_loss_reports_step(self):
        config = text_only_config()
        samples = polarized_samples(4, seed=2)
        table = EmbeddingTable(dim=config.text.dim, fallback_seed=2)
        params = init_model(config, seed=2)
        # the last layer has no ReLU after it, so the NaN reaches the loss
        params.head.weights[3].values[...] = np.nan
        cfg = TrainConfig(batch_size=2, initial_lr=0.1, epochs=1, seed=2)
        with pytest.raises(TrainingError, match="step 0"):
            train(params, samples, cfg, table=table)

    def test_empty_dataset_rejected(self):
        params = init_model(text_only_config(), seed=0)
        with pytest.raises(ValueError):
            train(params, [], TrainConfig(epochs=1), table=None)


class TestEvaluate:
    def test_order_independent(self):
        config = text_only_config()
        samples = polarized_samples(12, seed=3)
        table = EmbeddingTable(dim=config.text.dim, fallback_seed=3)
        params = init_model(config, seed=3)
        a = evaluate(params, samples, table)
        b = evaluate(params, list(reversed(samples)), table)
        assert (a.tp, a.fp, a.fn, a.tn) == (b.tp, b.fp, b.fn, b.tn)

    def test_counts_total_matches_dataset(self):
        config = text_only_config()
        samples = polarized_samples(9, seed=4)
        table = EmbeddingTable(dim=config.text.dim, fallback_seed=4)
        params = init_model(config, seed=4)
        m = evaluate(params, samples, table)
        assert m.total == 9

    def test_empty_dataset_rejected(self):
        params = init_model(text_only_config(), seed=0)
        with pytest.raises(ValueError):
            evaluate(params, [], None)

    def test_chunk_size_leaves_counts_unchanged(self, monkeypatch, full_fused):
        import dfsn.train as train_mod

        config = text_only_config()
        samples = polarized_samples(9, seed=5)
        table = EmbeddingTable(dim=config.text.dim, fallback_seed=5)
        params = init_model(config, seed=5)
        whole = evaluate(params, samples, table)
        for chunk in (1, 2, 4):
            monkeypatch.setattr(train_mod, "EVAL_CHUNK", chunk)
            m = evaluate(params, samples, table)
            assert (m.tp, m.fp, m.fn, m.tn) == (whole.tp, whole.fp, whole.fn, whole.tn)
        # the `full` fused model at its pixel budget of 4 images, then at 1 and 2
        params, samples, table = full_fused
        monkeypatch.setattr(train_mod, "EVAL_CHUNK", 32)
        assert train_mod.EVAL_CHUNK_PIXELS // 224 ** 2 == 4
        whole = evaluate(params, samples, table)
        assert 0 < whole.tp + whole.fp < whole.total  # both labels predicted
        for chunk in (1, 2):
            monkeypatch.setattr(train_mod, "EVAL_CHUNK", chunk)
            m = evaluate(params, samples, table)
            assert (m.tp, m.fp, m.fn, m.tn) == (whole.tp, whole.fp, whole.fn, whole.tn)

    def test_full_sample_peak_without_a_graph(self, full_fused):
        # one `full` sample's forward with a graph peaks at 14 MiB traced; the
        # constant forward frees each op's buffers and peaks at about 9.3 MiB
        params, samples, table = full_fused
        tracemalloc.start()
        try:
            evaluate(params, samples[:1], table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2 ** 20

    def test_parameters_get_no_gradient(self, full_fused):
        # nothing is stored on a tensor: evaluate leaves the parameters as they were
        params, samples, table = full_fused
        before = [t.values.copy() for t in params.tensors()]
        evaluate(params, samples, table)
        assert all(t.requires_grad and np.array_equal(t.values, v)
                   for t, v in zip(params.tensors(), before))


class TestHistoryRendering:
    def test_markdown_table(self):
        csv_text = ("step,0,0.0001,0.7\n"
                    "step,1,0.0001,0.6\n"
                    "epoch,1,train,0.75,0.5,0.6,0.7\n"
                    "epoch,1,test,0.7,0.45,0.55,0.65\n")
        md = render_history_markdown(csv_text)
        assert "| Epoch | Split |" in md
        assert "| 1 | train | 0.750 | 0.500 | 0.600 | 0.700 |" in md

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            render_history_markdown("bogus,1,2\n")
