"""Gradient verification suites over every differentiable operation.

Random probe tensors are drawn in [-1, 1] but kept away from the
non-smooth points of each operation (ReLU kinks, pooling ties), since
finite differences are meaningless exactly there. Each operation's output
is contracted to a scalar through a fixed random projection so that every
output element influences the probe loss with a distinct weight.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .autodiff import (Tensor, bias_add, concat, conv2d, lrn, matmul,
                       maxpool2d, relu, softmax_cross_entropy, tanh_op,
                       triple_pool, triple_pool_columns, window_filter)
from .gradcheck import GradCheckReport, grad_check
from .model import FusionConfig, ModelSample, batch_loss, init_model
from .text import EmbeddingTable
from . import model as model_mod


def _projection(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(0.5, 1.5, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def _away_from_zero(rng: np.random.Generator, shape, margin: float = 0.1) -> np.ndarray:
    mag = rng.uniform(margin, 1.0, size=shape)
    return mag * rng.choice([-1.0, 1.0], size=shape)


def _draw_tieless(rng: np.random.Generator, shape, view_fn: Callable[[np.ndarray], np.ndarray],
                  min_gap: float = 5e-2, attempts: int = 200) -> np.ndarray:
    """Random values whose windowed extrema are separated by at least min_gap.

    ``view_fn`` maps the array to (..., window) groups; within each group the
    top two and bottom two values must differ by min_gap so that +/- eps
    probes cannot flip an argmax or argmin.
    """
    for _ in range(attempts):
        v = rng.uniform(-1.0, 1.0, size=shape)
        groups = view_fn(v).reshape(-1, view_fn(v).shape[-1])
        srt = np.sort(groups, axis=1)
        if groups.shape[1] < 2:
            return v
        top_gap = (srt[:, -1] - srt[:, -2]).min()
        bot_gap = (srt[:, 1] - srt[:, 0]).min()
        if top_gap > min_gap and bot_gap > min_gap:
            return v
    raise RuntimeError("could not draw a tie-free tensor; widen min_gap or shrink the window")


def _op_trial_factories(rng: np.random.Generator):
    """One (name, trial) pair per differentiable operation.

    Each trial draws fresh inputs and returns (fn, inputs) for grad_check.
    """

    def scalarize(op):
        proj_cache: dict[tuple, Tensor] = {}

        def build(*inputs):
            out = op(*inputs)
            if out.shape == ():
                return out
            # drawn once per trial so repeated probe evaluations see one function
            if out.shape not in proj_cache:
                proj_cache[out.shape] = Tensor(_projection(rng, out.shape))
            return (out * proj_cache[out.shape]).sum()

        return build

    def relu_trial():
        t = Tensor(_away_from_zero(rng, (3, 4)), requires_grad=True)
        return scalarize(relu), [t]

    def tanh_trial():
        t = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        return scalarize(tanh_op), [t]

    def matmul_trial():
        a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        return scalarize(matmul), [a, b]

    def window_filter_trial():
        # constant tokens; widths 1-3 over 2-4 windows of 3-wide rows
        h = int(rng.integers(1, 4))
        tokens = rng.uniform(-1, 1, (h + int(rng.integers(1, 4)), 3))
        w = Tensor(rng.uniform(-1, 1, (h * 3, 2)), requires_grad=True)
        return scalarize(lambda w_: window_filter(tokens, w_, h)), [w]

    def bias_add_trial():
        m = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
        v = Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True)
        return scalarize(bias_add), [m, v]

    def conv2d_trial():
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        x = Tensor(rng.uniform(-1, 1, (2, 5, 5)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (3,)), requires_grad=True)
        return scalarize(lambda x_, k_, b_: conv2d(x_, k_, b_, stride=stride, pad=pad)), [x, k, b]

    def maxpool_trial():
        window, stride = (2, 2) if rng.uniform() < 0.5 else (3, 1)

        def windows(v):
            from numpy.lib.stride_tricks import sliding_window_view

            w = sliding_window_view(v, (window, window), axis=(1, 2))[:, ::stride, ::stride]
            return w.reshape(*w.shape[:3], window * window)

        t = Tensor(_draw_tieless(rng, (2, 4, 4), windows), requires_grad=True)
        return scalarize(lambda t_: maxpool2d(t_, window, stride)), [t]

    def lrn_trial():
        # alpha 0.5 makes the squared-sum term ~17% of the output, so a wrong
        # backward rule cannot hide, while curvature stays low enough for
        # central differences to resolve tol at eps 1e-3
        t = Tensor(rng.uniform(-1, 1, (3, 2, 2)), requires_grad=True)
        if rng.uniform() < 0.5:
            return scalarize(lambda t_: lrn(t_)), [t]
        return scalarize(lambda t_: lrn(t_, depth_radius=1, k=2.0, alpha=0.5, beta=0.75)), [t]

    def concat_trial():
        parts = [Tensor(rng.uniform(-1, 1, (n, 3)), requires_grad=True) for n in (2, 1, 4)]
        return scalarize(lambda *ps: concat(list(ps), axis=0)), parts

    def triple_pool_trial():
        if rng.uniform() < 0.5:
            v = _draw_tieless(rng, (7,), lambda a: a.reshape(1, -1))
            t = Tensor(v, requires_grad=True)
            return scalarize(triple_pool), [t]
        # two equal-length row segments, each pooled per column
        v = _draw_tieless(rng, (10, 4), lambda a: a.reshape(2, 5, 4).transpose(0, 2, 1))
        t = Tensor(v, requires_grad=True)
        return scalarize(lambda t_: triple_pool_columns(t_, (0, 5))), [t]

    def softmax_ce_trial():
        label = int(rng.integers(0, 4))
        t = Tensor(rng.uniform(-1, 1, (4,)), requires_grad=True)
        return (lambda t_: softmax_cross_entropy(t_, label)), [t]

    def arithmetic_trial():
        a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)

        def fn(a_, b_):
            mixed = (a_ * b_ + a_ - 0.5 * b_).reshape(12)
            return mixed.sum() + (a_ * a_).mean()

        return fn, [a, b]

    return [
        ("relu", relu_trial),
        ("tanh", tanh_trial),
        ("matmul", matmul_trial),
        ("bias_add", bias_add_trial),
        ("conv2d", conv2d_trial),
        ("maxpool2d", maxpool_trial),
        ("lrn", lrn_trial),
        ("concat", concat_trial),
        ("triple_pool", triple_pool_trial),
        ("softmax_cross_entropy", softmax_ce_trial),
        ("add_sub_mul_sum_mean_reshape", arithmetic_trial),
        # last, so the trials above keep the draws they had before it
        ("window_filter", window_filter_trial),
    ]


def run_op_checks(seed: int = 0, trials: int = 20, eps: float = 1e-3,
                  tol: float = 1e-4) -> list[tuple[str, GradCheckReport]]:
    """Per-operation gradient checks: ``trials`` random draws per op.

    Returns the worst report per op, labeled by operation name.
    """
    rng = np.random.default_rng(seed)
    results = []
    for name, factory in _op_trial_factories(rng):
        worst: Optional[GradCheckReport] = None
        for _ in range(trials):
            fn, inputs = factory()
            report = grad_check(fn, inputs, eps=eps, tol=tol)
            if worst is None or report.max_rel_err > worst.max_rel_err:
                worst = report
        results.append((name, worst))
    return results


def _demo_sample(rng: np.random.Generator, config: FusionConfig,
                 table: EmbeddingTable) -> ModelSample:
    image = None
    tokens = None
    if config.image is not None:
        side = config.image.input_side
        image = rng.uniform(-0.5, 0.5, size=(3, side, side))
    if config.text is not None:
        words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
        count = int(rng.integers(6, 12))
        tokens = [words[int(rng.integers(0, len(words)))] for _ in range(count)]
    return ModelSample(image=image, tokens=tokens, label=int(rng.integers(0, 2)), id="probe")


def run_model_check(seed: int = 0, eps: float = 1e-3, tol: float = 1e-4,
                    sample_per_tensor: int = 25) -> GradCheckReport:
    """End-to-end gradient check of the tiny fused model.

    Probes a pseudo-random subset of elements in every parameter tensor
    against finite differences of the full sample loss. Probes that land on a
    ReLU or pooling switch point are skipped (the loss is not differentiable
    there), so every comparison happens inside one smooth region.
    """
    rng = np.random.default_rng(seed)
    config = model_mod.fusion_preset("tiny", dtype="float64")
    params = init_model(config, seed=seed)
    table = EmbeddingTable(dim=config.text.dim, fallback_seed=seed)
    sample = _demo_sample(rng, config, table)
    tensors = params.tensors()

    def fn(*_):
        return batch_loss([sample], params, table)

    return grad_check(fn, tensors, eps=eps, tol=tol, sample=sample_per_tensor, rng=rng)


def run_gradcheck_suite(seed: int = 0, trials: int = 20, eps: float = 1e-3,
                        tol: float = 1e-4) -> list[tuple[str, GradCheckReport]]:
    """The op-level checks plus the end-to-end tiny model check."""
    results = run_op_checks(seed=seed, trials=trials, eps=eps, tol=tol)
    results.append(("fusion_model_end_to_end", run_model_check(seed=seed, eps=eps, tol=tol)))
    return results
