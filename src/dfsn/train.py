"""Mini-batch SGD training with a staircase learning-rate schedule,
plus confusion-matrix evaluation.

Training is sequential and fully deterministic for a given seed: batches
come from a seeded shuffle and all accumulation happens in a fixed order,
so two runs with the same inputs produce byte-identical histories and
checkpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor, ShapeError, backward, check_int, zero_grads
from .model import (FusionModelParams, ModelSample, batch_loss, encode_inputs,
                    forward, predicted_label)
from .text import EmbeddingTable


class TrainingError(RuntimeError):
    """Training cannot continue (e.g. the loss went non-finite)."""


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the training loop; defaults follow the full-scale regime."""

    batch_size: int = 100
    initial_lr: float = 1e-4
    decay_base: float = 0.96
    decay_every: int = 3000
    epochs: int = 10
    seed: int = 0
    eval_every: int = 1  # epochs between evaluations; 0 disables them

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("decay_every", 1), ("epochs", 0),
                          ("eval_every", 0), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        if not (0.0 < self.decay_base <= 1.0):
            raise ValueError("decay_base must be in (0, 1]")
        if not (math.isfinite(self.initial_lr) and self.initial_lr > 0.0):
            raise ValueError(f"initial_lr must be finite and positive, got {self.initial_lr}")


def lr_at_step(step: int, cfg: TrainConfig) -> float:
    """Staircase schedule: initial_lr * decay_base ** floor(step / decay_every)."""
    if step < 0:
        raise ValueError(f"step must be nonnegative, got {step}")
    return cfg.initial_lr * cfg.decay_base ** (step // cfg.decay_every)


def sgd_step(tensors: Sequence[Tensor], grads: Sequence[np.ndarray], lr: float) -> None:
    """Plain gradient descent: p <- p - lr * g, in place, for every tensor.

    Updates are computed in float64 and stored back at each tensor's dtype.
    """
    if len(tensors) != len(grads):
        raise ShapeError(f"sgd_step: {len(tensors)} tensors but {len(grads)} gradients")
    for t, g in zip(tensors, grads):
        if g is None:
            continue
        g = np.asarray(g)
        if g.shape != t.shape:
            raise ShapeError(f"sgd_step: gradient shape {g.shape} != parameter shape {t.shape}")
        np.subtract(t.values, np.multiply(g, lr, dtype=np.float64), out=t.values,
                    dtype=np.float64, casting="same_kind")


def apply_gradients(params: FusionModelParams, lr: float) -> None:
    tensors = params.tensors()
    sgd_step(tensors, [t.grad for t in tensors], lr)


# -- metrics -------------------------------------------------------------------


def _ratio(num, den) -> float:
    return 0.0 if den == 0 else num / den


@dataclass(frozen=True)
class MetricsReport:
    """Confusion counts and the derived precision/recall/F1/accuracy.

    The positive class is label 1. A metric whose denominator is zero is
    reported as 0.0 instead of raising.
    """

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def precision(self) -> float:
        return _ratio(self.tp, self.tp + self.fp)

    @property
    def recall(self) -> float:
        return _ratio(self.tp, self.tp + self.fn)

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return _ratio(2.0 * p * r, p + r)

    @property
    def accuracy(self) -> float:
        return _ratio(self.tp + self.tn, self.total)

    def row(self) -> str:
        """The four metric columns in presentation order: Prec. Rec. F1 Acc."""
        return (f"{self.precision:.3f} {self.recall:.3f} "
                f"{self.f1:.3f} {self.accuracy:.3f}")


# evaluate runs the samples through the batched forward pass in chunks. A
# chunk's graph keeps its im2col buffers alive until its logits are read, so
# a chunk holds at most EVAL_CHUNK samples and EVAL_CHUNK_PIXELS input pixels:
# 32 tiny (16 px) images, or one full (224 px) image.
EVAL_CHUNK = 32
EVAL_CHUNK_PIXELS = EVAL_CHUNK * 16 * 16


def evaluate(params: FusionModelParams, samples: Sequence[ModelSample],
             table: Optional[EmbeddingTable]) -> MetricsReport:
    """Confusion counts of argmax predictions over a materialized dataset."""
    if len(samples) == 0:
        raise ValueError("evaluate needs a nonempty dataset")
    chunk = EVAL_CHUNK
    if params.config.image is not None:
        chunk = max(1, min(chunk, EVAL_CHUNK_PIXELS // params.config.image.input_side ** 2))
    preds = []
    for start in range(0, len(samples), chunk):
        part = samples[start:start + chunk]
        x = encode_inputs([s.image for s in part], [s.tokens for s in part], params, table)
        preds.append(predicted_label(forward(x, params)))
        del x  # frees this chunk's graph before the next chunk builds its own
    # bin 2 * label + prediction counts tn, fp, fn, tp in that order; any
    # label other than 1 counts as negative
    codes = 2 * (np.array([s.label for s in samples]) == 1) + np.concatenate(preds)
    tn, fp, fn, tp = np.bincount(codes, minlength=4).tolist()
    return MetricsReport(tp=tp, fp=fp, fn=fn, tn=tn)


# -- history -------------------------------------------------------------------


@dataclass(frozen=True)
class StepRecord:
    step: int
    lr: float
    loss: float


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    split: str
    metrics: MetricsReport


@dataclass
class TrainHistory:
    steps: list[StepRecord] = field(default_factory=list)
    epochs: list[EpochRecord] = field(default_factory=list)

    def to_csv(self) -> str:
        """Line-oriented history: step,<step>,<lr>,<loss> then
        epoch,<epoch>,<split>,<precision>,<recall>,<f1>,<accuracy>."""
        lines = [f"step,{s.step},{s.lr!r},{s.loss!r}" for s in self.steps]
        for e in self.epochs:
            m = e.metrics
            lines.append(f"epoch,{e.epoch},{e.split},{m.precision!r},{m.recall!r},"
                         f"{m.f1!r},{m.accuracy!r}")
        return "\n".join(lines) + "\n"


def render_history_markdown(csv_text: str) -> str:
    """Turn a history CSV into a small markdown report."""
    step_rows = []
    epoch_rows = []
    for lineno, line in enumerate(csv_text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if fields[0] == "step" and len(fields) == 4:
            step_rows.append(fields[1:])
        elif fields[0] == "epoch" and len(fields) == 7:
            epoch_rows.append(fields[1:])
        else:
            raise ValueError(f"history line {lineno}: unrecognized record {line!r}")
    out = []
    if step_rows:
        first, last = step_rows[0], step_rows[-1]
        out.append(f"Steps: {len(step_rows)} (loss {float(first[2]):.4f} -> "
                   f"{float(last[2]):.4f}, lr {float(first[1]):.2e} -> {float(last[1]):.2e})")
        out.append("")
    if epoch_rows:
        out.append("| Epoch | Split | Prec. | Rec. | F1 | Acc. |")
        out.append("|---|---|---|---|---|---|")
        for epoch, split, p, r, f1, acc in epoch_rows:
            out.append(f"| {epoch} | {split} | {float(p):.3f} | {float(r):.3f} "
                       f"| {float(f1):.3f} | {float(acc):.3f} |")
    return "\n".join(out) + "\n"


# -- the loop ------------------------------------------------------------------


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start:start + batch_size]


def train(params: FusionModelParams, train_samples: Sequence[ModelSample],
          cfg: TrainConfig, table: Optional[EmbeddingTable] = None,
          eval_samples: Optional[Sequence[ModelSample]] = None,
          out_dir=None) -> tuple[FusionModelParams, TrainHistory]:
    """Run seeded mini-batch SGD over the dataset.

    Per step: zero gradients, mean batch loss, backward, parameter update at
    the scheduled rate. Evaluations run every ``cfg.eval_every`` epochs on the
    training split and, when given, on ``eval_samples``. With ``out_dir`` set,
    final and best-accuracy checkpoints plus the history CSV are written
    there (best accuracy is measured on the evaluation split if present,
    otherwise on the training split).
    """
    # imported here to avoid a module cycle: data handles checkpoint files
    from .data import save_checkpoint

    if len(train_samples) == 0:
        raise ValueError("train needs a nonempty dataset")
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    step = 0
    best_accuracy = -1.0
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_samples))
        for batch_idx in _batches(order, cfg.batch_size):
            batch = [train_samples[i] for i in batch_idx]
            zero_grads(params.tensors())
            loss = batch_loss(batch, params, table)
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise TrainingError(f"non-finite loss {loss_value} at step {step}")
            backward(loss)
            del loss  # frees this step's graph before the next step builds its own
            lr = lr_at_step(step, cfg)
            apply_gradients(params, lr)
            history.steps.append(StepRecord(step=step, lr=lr, loss=loss_value))
            step += 1
        if cfg.eval_every and epoch % cfg.eval_every == 0:
            train_report = evaluate(params, train_samples, table)
            history.epochs.append(EpochRecord(epoch=epoch, split="train", metrics=train_report))
            tracked = train_report
            if eval_samples is not None:
                test_report = evaluate(params, eval_samples, table)
                history.epochs.append(EpochRecord(epoch=epoch, split="test", metrics=test_report))
                tracked = test_report
            if out_path is not None and tracked.accuracy > best_accuracy:
                best_accuracy = tracked.accuracy
                save_checkpoint(params, out_path / "checkpoint-best.dfsn")

    if out_path is not None:
        save_checkpoint(params, out_path / "checkpoint-final.dfsn")
        (out_path / "history.csv").write_text(history.to_csv(), encoding="utf-8")
    return params, history
