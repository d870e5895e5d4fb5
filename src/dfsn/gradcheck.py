"""Finite-difference verification of analytic gradients.

``grad_check`` compares the gradients an autodiff backward pass produces with
central differences of the same scalar function. It reports rather than
raises, so calibration tests can assert that a broken rule is caught.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .autodiff import Tensor, ShapeError, backward, capture_switch_signature, zero_grads


@dataclass
class GradCheckEntry:
    """Comparison result for one checked input tensor."""

    input_index: int
    max_rel_err: float
    worst_flat_index: int
    analytic_at_worst: float
    numeric_at_worst: float
    compared: int
    skipped: int = 0

    def __str__(self) -> str:
        note = f", {self.skipped} probes skipped at switch points" if self.skipped else ""
        return (f"input[{self.input_index}]: max_rel_err={self.max_rel_err:.3e} "
                f"at flat index {self.worst_flat_index} "
                f"(analytic={self.analytic_at_worst:.6e}, "
                f"numeric={self.numeric_at_worst:.6e}{note})")


@dataclass
class GradCheckReport:
    """Aggregate of per-input comparisons against a tolerance."""

    entries: list[GradCheckEntry] = field(default_factory=list)
    tol: float = 0.0
    eps: float = 0.0

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    @property
    def compared(self) -> int:
        return sum(e.compared for e in self.entries)

    @property
    def skipped(self) -> int:
        return sum(e.skipped for e in self.entries)

    @property
    def passed(self) -> bool:
        return self.compared > 0 and self.max_rel_err <= self.tol

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"grad_check {status}: max_rel_err={self.max_rel_err:.3e} "
                 f"(tol={self.tol:.1e}, eps={self.eps:.1e}, "
                 f"{self.compared} compared, {self.skipped} skipped)"]
        lines.extend(str(e) for e in self.entries)
        return "\n".join(lines)


def _relative_error(analytic: float, numeric: float) -> float:
    denom = max(abs(analytic), abs(numeric), 1e-8)
    return abs(analytic - numeric) / denom


def grad_check(fn: Callable[..., Tensor], inputs: Sequence[Tensor],
               eps: float = 1e-3, tol: float = 1e-4,
               sample: Optional[int] = None,
               rng: Optional[np.random.Generator] = None) -> GradCheckReport:
    """Compare analytic gradients of ``fn`` against central differences.

    ``fn`` must map the given tensors to a scalar tensor and be deterministic.
    Each element x of each input is perturbed to x +/- eps and the slope
    (f(x+eps) - f(x-eps)) / (2*eps) is compared with the backward-pass value;
    the relative error denominator is max(|analytic|, |numeric|, 1e-8).

    When ``sample`` is given, only that many pseudo-randomly chosen elements
    per input are probed (``rng`` is then required); otherwise every element
    is checked. Probes whose +/- eps interval flips any ReLU mask or pooling
    argmax are skipped and counted instead of compared: central differences
    are undefined across those switch points.
    Input values are modified in place during probing and restored afterwards.
    """
    if sample is not None and rng is None:
        raise ValueError("sampled grad_check needs an rng for index selection")

    zero_grads(inputs)
    with capture_switch_signature() as sink:
        loss = fn(*inputs)
    base_signature = tuple(sink)
    if not isinstance(loss, Tensor) or loss.values.size != 1:
        raise ShapeError("grad_check: fn must return a scalar tensor")
    backward(loss)
    analytic = [np.zeros(t.shape, dtype=np.float64) if t.grad is None
                else t.grad.astype(np.float64).copy()
                for t in inputs]

    def probe_once(current_inputs):
        with capture_switch_signature() as sink:
            value = fn(*current_inputs).item()
        return value, tuple(sink) == base_signature

    report = GradCheckReport(tol=tol, eps=eps)
    for idx, t in enumerate(inputs):
        flat = t.values.reshape(-1)
        n = flat.size
        if sample is None or sample >= n:
            probe = range(n)
        else:
            probe = sorted(rng.choice(n, size=sample, replace=False).tolist())
        entry = GradCheckEntry(idx, -1.0, -1, 0.0, 0.0, compared=0)
        a_flat = analytic[idx].reshape(-1)
        for j in probe:
            original = flat[j]
            flat[j] = original + eps
            f_plus, smooth_plus = probe_once(inputs)
            flat[j] = original - eps
            f_minus, smooth_minus = probe_once(inputs)
            flat[j] = original
            if not (smooth_plus and smooth_minus):
                entry.skipped += 1
                continue
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = _relative_error(float(a_flat[j]), numeric)
            entry.compared += 1
            if err > entry.max_rel_err:
                entry.max_rel_err = err
                entry.worst_flat_index = j
                entry.analytic_at_worst = float(a_flat[j])
                entry.numeric_at_worst = numeric
        if entry.worst_flat_index < 0:
            entry.max_rel_err = 0.0
            entry.worst_flat_index = 0
        report.entries.append(entry)
    return report
