"""Dense tensors with reverse-mode automatic differentiation.

Every operation the image branch, the text branch, and the fusion head need
is implemented here with an explicit backward rule, beside the one holder and
init rule of every layer's weight and bias. Arrays are numpy-backed,
and each op computes in ``np.result_type`` of its operands: a float32 model runs
float32 arithmetic, a float64 one (what the finite-difference checks use)
float64. Matrix products cast both operands to that type first, since numpy
runs a mixed-dtype product without BLAS. The softmax loss accumulates in
float64. A ``Tensor`` has no arithmetic operators: every op is a function here.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes violate an operation's contract."""


def check_int(name: str, value, low: int = 1) -> None:
    """Config-field check: ``value`` must be an int (a bool is not) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


_SWITCH_SINK: Optional[list] = None


@contextmanager
def capture_switch_signature():
    """Record the discrete choices (ReLU masks, pooling argmax/argmin picks)
    of every op that runs inside the context.

    Two forward passes with equal signatures lie in the same smooth region of
    the piecewise-differentiable network, which is the precondition for
    finite-difference gradient comparison. Verification aid; not thread safe.
    """
    global _SWITCH_SINK
    prev = _SWITCH_SINK
    sink: list[bytes] = []
    _SWITCH_SINK = sink
    try:
        yield sink
    finally:
        _SWITCH_SINK = prev


def _record_switch(build: Callable[[], np.ndarray]) -> None:
    """Append the bytes of ``build()`` to the installed sink; with none, build nothing."""
    if _SWITCH_SINK is not None:
        _SWITCH_SINK.append(build().tobytes())


class Tensor:
    """N-dimensional array plus the graph edge that produced it.

    ``values`` is row-major and its shape is fixed at creation. Tensors
    produced by operations are treated as immutable; parameters (leaves)
    may be updated in place by an optimizer between backward passes. A
    tensor holds no gradient: ``backward`` returns them. Float32 and float64
    data keep their dtype; any other data becomes float64. Inference runs on
    constant parameters (``LayerParams.frozen``), so it records no graph.
    """

    __slots__ = ("values", "requires_grad", "_op", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        self.values = arr if arr.dtype in (np.float32, np.float64) else arr.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self._op: Optional[str] = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def numel(self) -> int:
        return self.values.size

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(()))

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _reshape(self, shape)

    def __repr__(self) -> str:
        head = f"Tensor(shape={self.shape}, dtype={self.values.dtype}"
        if self._op:
            head += f", op={self._op}"
        if self.requires_grad:
            head += ", requires_grad=True"
        return head + ")"


def _make_node(values: np.ndarray, op: str, parents: Sequence[Tensor],
               backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]],
               out_dtype=None) -> Tensor:
    """Wrap an op result. Only if a parent requires grad are the parents and the backward
    closure (and its buffers) kept; on constant parameters, as in inference, none are."""
    if out_dtype is None:
        out_dtype = np.result_type(*(p.values.dtype for p in parents))
    out = Tensor(values.astype(out_dtype, copy=False))
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._op = op
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
    return out


def _topo_order(root: Tensor) -> list[Tensor]:
    """Nodes reachable from ``root`` in topological order, leaves first, root last."""
    order: list[Tensor] = []
    seen: set[int] = set()
    # Iterative post-order DFS; graphs can be deep for long training chains.
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor, wrt: Sequence[Tensor]) -> list[Optional[np.ndarray]]:
    """The gradient of the scalar ``loss`` for each tensor of ``wrt``, at that tensor's
    dtype, or None for one that ``loss`` does not reach through ops that require grad.
    Nothing is stored on a tensor. The arrays are read-only: an op may hand on its
    incoming gradient (``bias_add``) or views of it (``concat``)."""
    if loss.values.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    wanted = {id(t) for t in wrt}
    grads: dict[int, np.ndarray] = {}
    flowing: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values, dtype=np.float64)}
    for node in reversed(_topo_order(loss)):
        g = flowing.pop(id(node), None)
        if g is None or not node.requires_grad:
            continue
        # the closure sees g at its node's dtype, so a float64 gradient from the
        # loss does not upcast a float32 branch's backward
        g = g.astype(node.values.dtype, copy=False)
        if id(node) in wanted:
            grads[id(node)] = g
        if node._backward_fn is None:
            continue
        parent_grads = node._backward_fn(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in flowing:
                flowing[key] = flowing[key] + pg
            else:
                flowing[key] = pg
    return [grads.get(id(t)) for t in wrt]


# -- layer parameters --------------------------------------------------------


@dataclass
class LayerParams:
    """One weight and one bias per layer of a stack, keyed by the layer's id:
    the number in its tensor names ``{prefix}{id}.weight`` and ``.bias``."""

    config: object
    prefix: str
    weights: dict[int, Tensor] = field(default_factory=dict)
    biases: dict[int, Tensor] = field(default_factory=dict)

    def named_tensors(self) -> dict[str, Tensor]:
        """Weight then bias of each layer, in layer order: the checkpoint order."""
        out = {}
        for i, w in self.weights.items():
            out[f"{self.prefix}{i}.weight"] = w
            out[f"{self.prefix}{i}.bias"] = self.biases[i]
        return out

    def frozen(self) -> "LayerParams":
        """A twin over the same arrays, as tensors that require no grad: ops on it
        keep no graph. Nothing is copied, so an update to these parameters shows."""
        return LayerParams(self.config, self.prefix,
                           {i: Tensor(w.values) for i, w in self.weights.items()},
                           {i: Tensor(b.values) for i, b in self.biases.items()})


def init_layers(config, prefix: str, layers, rng: Optional[np.random.Generator],
                dtype) -> LayerParams:
    """Parameters for ``layers``, a list of (id, weight shape, bias shape).

    Weights are drawn in list order from uniform [-a, a] with
    a = sqrt(6 / (fan_in + fan_out)) (Glorot & Bengio, 2010), where
    fan_in + fan_out = (shape[0] + shape[1]) * prod(shape[2:]) for dense
    (in, out) and conv (out, in, kh, kw) weights alike. Biases are zero. With
    ``rng`` None every weight is zero too and nothing is drawn.
    """
    params = LayerParams(config, prefix)
    for i, w_shape, b_shape in layers:
        if rng is None:
            w = np.zeros(w_shape, dtype)
        else:
            a = np.sqrt(6.0 / ((w_shape[0] + w_shape[1]) * math.prod(w_shape[2:])))
            w = rng.uniform(-a, a, size=w_shape).astype(dtype)
        params.weights[i] = Tensor(w, requires_grad=True)
        params.biases[i] = Tensor(np.zeros(b_shape, dtype), requires_grad=True)
    return params


# -- elementwise and structural ops -----------------------------------------


# no model path calls this; perfbench/tracer.py rebinds it by name (goes with ROADMAP item 2)
def _mean(t: Tensor) -> Tensor:
    n = t.values.size
    if n == 0:
        raise ShapeError("mean of an empty tensor")
    vals = np.asarray(t.values.astype(np.float64, copy=False).mean())

    def back(g):
        return (np.full(t.shape, float(g) / n, dtype=np.float64),)

    return _make_node(vals, "mean", (t,), back)


def _reshape(t: Tensor, shape: tuple[int, ...]) -> Tensor:
    vals = t.values.reshape(shape)
    in_shape = t.shape

    def back(g):
        return (g.reshape(in_shape),)

    return _make_node(vals, "reshape", (t,), back)


def relu(t: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at exactly 0 is taken as 0."""
    mask = t.values > 0
    _record_switch(lambda: np.packbits(mask.reshape(-1)))
    vals = np.where(mask, t.values, 0.0)

    def back(g):
        return (g * mask,)

    return _make_node(vals, "relu", (t,), back)


def tanh_op(t: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    y = np.tanh(t.values)

    def back(g):
        return (g * (1.0 - y * y),)

    return _make_node(y, "tanh", (t,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a 2-D ``a`` (m, k) with a 2-D ``b`` (k, n)."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner extents differ for {a.shape} and {b.shape}")
    dt = np.result_type(a.dtype, b.dtype)
    av, bv = a.values.astype(dt, copy=False), b.values.astype(dt, copy=False)

    def back(g):
        return (g @ bv.T, av.T @ g)

    return _make_node(av @ bv, "matmul", (a, b), back)


def window_filter(rows: np.ndarray, ids: np.ndarray, w: Tensor, h: int) -> Tensor:
    """Row r is ``rows[ids[r:r + h]].reshape(-1) @ w`` for each h-token window of the
    constant (U, D) distinct ``rows``, picked per token by the (R,) ``ids``; ``w`` is
    (h*D, F) and alone gets a gradient. kn2row over distinct rows: one (h*F, D) @ (D, U)
    product (unlike ``rows @ w``, this orientation keeps OpenBLAS buffers small),
    gathered per token, whose h offset blocks are shift-added, so no window is formed.
    The backward sums the gradient per distinct row (a stable sort of ``ids`` and
    ``np.add.reduceat``) before one (h*F, U) @ (U, D) product."""
    dim, r = rows.shape[1], len(ids)
    if w.ndim != 2 or w.shape[0] != h * dim or not 1 <= h <= r:
        raise ShapeError(f"window_filter: width {h} does not fit {r} tokens, {w.shape} weights")
    f, n, dt = w.shape[1], r - h + 1, np.result_type(rows.dtype, w.dtype)
    tv = rows.astype(dt, copy=False)
    wt = w.values.astype(dt, copy=False).reshape(h, dim, f).transpose(0, 2, 1).reshape(h * f, dim)
    p = (wt @ tv.T)[:, ids].reshape(h, f, r)

    def back(g):
        gt = np.zeros((h, f, r), dt)
        for k in range(h):
            gt[k, :, k:k + n] = g.T
        order = np.argsort(ids, kind="stable")
        starts = np.flatnonzero(np.diff(ids[order], prepend=-1))  # each distinct id's first
        gu = np.add.reduceat(gt.reshape(h * f, r)[:, order], starts, axis=1)
        dwt = (gu @ tv[ids[order[starts]]]).reshape(h, f, dim)
        return (dwt.transpose(0, 2, 1).reshape(h * dim, f),)

    vals = sum(p[k, :, k:k + n] for k in range(h)).T
    return _make_node(vals, "window_filter", (w,), back, out_dtype=dt)


def bias_add(mat: Tensor, vec: Tensor) -> Tensor:
    """Add a length-n bias vector to every row of an (m, n) matrix."""
    if mat.ndim != 2 or vec.ndim != 1 or mat.shape[1] != vec.shape[0]:
        raise ShapeError(f"bias_add: incompatible shapes {mat.shape} and {vec.shape}")
    vals = mat.values + vec.values[None, :]

    def back(g):
        return (g, g.sum(axis=0))

    return _make_node(vals, "bias_add", (mat, vec), back)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``; backward splits the gradient back."""
    try:
        vals = np.concatenate([p.values for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat of shapes {[p.shape for p in parts]} along axis {axis}: "
                         f"{exc}") from None
    bounds = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def back(g):
        return np.split(g, bounds, axis=axis)

    return _make_node(vals, "concat", tuple(parts), back)


# -- convolution stack ops ---------------------------------------------------


def _check_image_rank(t: Tensor, op: str) -> None:
    """conv2d, maxpool2d and lrn act on the trailing (C, H, W) axes and carry a
    leading batch axis through; one image is the batch-free case."""
    if t.ndim not in (3, 4):
        raise ShapeError(f"{op} input must be (C, H, W) or (N, C, H, W), got {t.shape}")


def conv2d(x: Tensor, kernels: Tensor, bias: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlate a (C_in, H, W) or (N, C_in, H, W) input with
    (C_out, C_in, kh, kw) kernels.

    Output spatial extents follow floor((H + 2*pad - kh) / stride) + 1. The
    forward lowers the whole batch to one im2col matrix product; backward
    produces gradients for the kernels, the per-output-channel bias and, when
    it requires grad, the input. The node keeps no columns: backward re-forms
    them from ``x.values``, so an input must not change before backward.
    """
    _check_image_rank(x, "conv2d")
    if kernels.ndim != 4:
        raise ShapeError(f"conv2d kernels must be (C_out, C_in, kh, kw), got {kernels.shape}")
    c_in, h, w = x.shape[-3:]
    c_out, kc, kh, kw = kernels.shape
    if kc != c_in:
        raise ShapeError(f"conv2d: input has {c_in} channels but kernels expect {kc}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({c_out},)")
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be positive, got {stride}")
    if pad < 0:
        raise ShapeError(f"conv2d: pad must be nonnegative, got {pad}")
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise ShapeError(
            f"conv2d: kernel ({kh}, {kw}) exceeds padded input ({h + 2 * pad}, {w + 2 * pad})")

    n = x.values.size // (c_in * h * w)
    dt = np.result_type(x.dtype, kernels.dtype, bias.dtype)
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    offsets = [(i, j, slice(i, i + stride * (ho - 1) + 1, stride),
                slice(j, j + stride * (wo - 1) + 1, stride)) for i in range(kh) for j in range(kw)]

    def im2col():
        # channel-major im2col: each kernel offset copies its strided (ho, wo) runs
        # of a (c_in, n, Hp, Wp) buffer into c_in rows of a (c_in*kh*kw, n*ho*wo) matrix
        xp = np.zeros((c_in, n, h + 2 * pad, w + 2 * pad), dt)
        xp[:, :, pad:pad + h, pad:pad + w] = x.values.reshape(n, c_in, h, w).transpose(1, 0, 2, 3)
        cols = np.empty((c_in, kh, kw, n, ho, wo), dt)
        for i, j, rows, cs in offsets:
            cols[:, i, j] = xp[:, :, rows, cs]
        return cols.reshape(c_in * kh * kw, n * ho * wo)

    kmat = kernels.values.astype(dt, copy=False).reshape(c_out, -1)
    out = kmat @ im2col() + bias.values[:, None]
    # (c_out, n, ho, wo) viewed as (n, c_out, ho, wo): each (ho, wo) plane stays contiguous
    vals = out.reshape(c_out, n, ho, wo).transpose(1, 0, 2, 3).reshape(
        x.shape[:-3] + (c_out, ho, wo))

    def back(g):
        gcm = g.reshape(n, c_out, ho, wo).transpose(1, 0, 2, 3).reshape(c_out, n * ho * wo)
        dk = (gcm @ im2col().T).reshape(c_out, c_in, kh, kw)
        db = gcm.sum(axis=1)
        if not x.requires_grad:
            # a constant input, such as the image, needs no gradient
            return (None, dk, db)
        # col2im mirrors the im2col loop: each offset adds its block back
        dcols = (kmat.T @ gcm).reshape(c_in, kh, kw, n, ho, wo)
        dxp = np.zeros((c_in, n, h + 2 * pad, w + 2 * pad), dt)
        for i, j, rows, cs in offsets:
            dxp[:, :, rows, cs] += dcols[:, i, j]
        dx = dxp[:, :, pad:pad + h, pad:pad + w].transpose(1, 0, 2, 3)
        return (dx.reshape(x.shape), dk, db)

    return _make_node(vals, "conv2d", (x, kernels, bias), back)


def maxpool2d(t: Tensor, window: int, stride: int) -> Tensor:
    """Per-window maximum over a (C, H, W) or (N, C, H, W) tensor.

    Gradient routes to the first (row-major) argmax inside each window, which
    keeps backward deterministic under ties. The forward is a running maximum
    over the window offsets' strided views, and the output is channel-major
    in memory, like conv2d's.
    """
    _check_image_rank(t, "maxpool2d")
    if window < 1 or stride < 1:
        raise ShapeError(f"maxpool2d: window and stride must be positive, got {window}, {stride}")
    h, w = t.shape[-2:]
    if h < window or w < window:
        raise ShapeError(f"maxpool2d: window {window} exceeds input ({h}, {w})")
    ho, wo = (h - window) // stride + 1, (w - window) // stride + 1
    # channel-major (C, N, H, W), as conv2d lays out its output; window offset
    # k = a*window + b reads v[..., a + stride*i, b + stride*j]
    v = t.values.reshape((-1,) + t.shape[-3:]).transpose(1, 0, 2, 3)
    views = [v[..., a:a + stride * (ho - 1) + 1:stride, b:b + stride * (wo - 1) + 1:stride]
             for a in range(window) for b in range(window)]
    vals = views[0].copy()
    for view in views[1:]:
        np.maximum(vals, view, out=vals)

    def picks():
        # the first offset holding the maximum, found last to first; a window
        # with a NaN has NaN as its maximum and picks its first NaN, as argmax does
        arg = np.zeros(vals.shape, np.intp)
        for k in range(len(views) - 1, -1, -1):
            arg = np.where((views[k] == vals) | np.isnan(views[k]), k, arg)
        return arg

    # only backward and the switch signature read the picks
    _record_switch(lambda: picks().transpose(1, 0, 2, 3).astype(np.int32))

    def back(g):
        # each pick as a flat index into v: one bincount sums overlapping windows
        corner = (np.arange(0, v.size, h * w).reshape(v.shape[:2] + (1, 1))
                  + (np.arange(ho)[:, None] * w + np.arange(wo)) * stride)
        shift = (np.arange(window)[:, None] * w + np.arange(window)).reshape(-1)
        gcm = g.reshape((v.shape[1], v.shape[0], ho, wo)).transpose(1, 0, 2, 3)
        dx = np.bincount((corner + shift[picks()]).reshape(-1), gcm.reshape(-1), v.size)
        dx = dx.astype(v.dtype, copy=False).reshape(v.shape).transpose(1, 0, 2, 3)
        return (dx.reshape(t.shape),)

    return _make_node(vals.transpose(1, 0, 2, 3).reshape(t.shape[:-2] + (ho, wo)),
                      "maxpool2d", (t,), back)


def lrn(t: Tensor, depth_radius: int = 2, k: float = 2.0,
        alpha: float = 1e-4, beta: float = 0.75) -> Tensor:
    """Local response normalization across the channels of a (C, H, W) or
    (N, C, H, W) tensor.

    b_c = a_c / (k + alpha * sum_{c' in [c-r, c+r]} a_{c'}^2) ** beta, with the
    channel window clipped at the tensor edges.
    """
    _check_image_rank(t, "lrn")
    if k <= 0:
        raise ValueError(f"lrn: k must be positive to keep the denominator bounded, got {k}")
    if depth_radius < 0:
        raise ValueError(f"lrn: depth_radius must be nonnegative, got {depth_radius}")
    v = t.values
    c = v.shape[-3]
    asq = v * v
    asq *= alpha
    denom = np.full_like(v, float(k))
    for off in range(-depth_radius, depth_radius + 1):
        lo, hi = max(0, -off), min(c, c - off)
        denom[..., lo:hi, :, :] += asq[..., lo + off:hi + off, :, :]
    scale = denom ** (-beta)
    vals = v * scale

    def back(g):
        inner = g * v * denom ** (-beta - 1.0)
        acc = np.zeros_like(v)
        for off in range(-depth_radius, depth_radius + 1):
            lo, hi = max(0, -off), min(c, c - off)
            acc[..., lo:hi, :, :] += inner[..., lo + off:hi + off, :, :]
        return (g * scale - 2.0 * alpha * beta * v * acc,)

    return _make_node(vals, "lrn", (t,), back)


# -- pooling over feature maps and the loss ----------------------------------


def triple_pool(c: Tensor) -> Tensor:
    """Pool a 1-D feature map into [max, mean, min]."""
    if c.ndim != 1:
        raise ShapeError(f"triple_pool needs a 1-D feature map, got {c.shape}")
    return triple_pool_columns(c.reshape(-1, 1)).reshape(3)


def triple_pool_columns(t: Tensor, starts: Sequence[int] = (0,),
                        counts: Optional[Sequence[int]] = None) -> Tensor:
    """Pool each column of each row segment of an (L, F) matrix into
    [max, mean, min].

    Segment s holds ``counts[s]`` rows from row ``starts[s]``; without
    ``counts`` each segment runs to the next start (the last one to L), so the
    default pools the whole matrix. Rows outside every segment are ignored.
    Returns an (S, F, 3) tensor. Max and min gradients route to the first
    occurrence within the segment's column, mean spreads uniformly over it.
    """
    if t.ndim != 2:
        raise ShapeError(f"triple_pool_columns needs an (L, F) matrix, got {t.shape}")
    ln, f = t.shape
    starts = np.asarray(starts, dtype=np.intp)
    counts = np.diff(np.append(starts, ln)) if counts is None else np.asarray(counts, np.intp)
    ends = starts + counts
    if starts[0] < 0 or (counts < 1).any() or (starts[1:] < ends[:-1]).any() or ends[-1] > ln:
        raise ShapeError(f"triple_pool_columns: segment starts {starts.tolist()} and counts "
                         f"{counts.tolist()} must give ordered, nonempty rows of {ln}")
    # the pooled rows, segment after segment; segment s begins at first[s]
    first = np.cumsum(counts) - counts
    rows = np.repeat(starts - first, counts) + np.arange(counts.sum())
    v = t.values[rows]
    mx = np.maximum.reduceat(v, first, axis=0)
    mn = np.minimum.reduceat(v, first, axis=0)

    def picks():
        # the first occurrence is the smallest row index holding the extremum
        # (a NaN column holds none and falls back to the last row)
        at, last = np.arange(len(rows))[:, None], len(rows) - 1
        return [rows[np.minimum.reduceat(np.where(v == np.repeat(m, counts, axis=0), at, last),
                                         first, axis=0)] for m in (mx, mn)]

    # as in maxpool2d, only backward and the switch signature read the picks
    _record_switch(lambda: np.stack(picks()).astype(np.int32))
    # constant columns pool to the shared value exactly; sum/L would round
    mean = np.where(mx == mn, mx, np.add.reduceat(v, first, axis=0) / counts[:, None])
    vals = np.stack([mx, mean, mn], axis=2)

    def back(g):
        amax, amin = picks()
        d = np.zeros((ln, f), v.dtype)
        cols = np.arange(f)
        np.add.at(d, (amax, cols), g[..., 0])
        d[rows] += np.repeat(g[..., 1] / counts[:, None], counts, axis=0)
        np.add.at(d, (amin, cols), g[..., 2])
        return (d,)

    return _make_node(vals, "triple_pool", (t,), back)


def stable_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, computed with max subtraction, in float64."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of (N, K) logits against N integer class labels.

    A 1-D logit vector with one integer label is the batch-free case. Each row
    is logsumexp(row) - row[label] after max subtraction; backward yields
    softmax(logits) minus the one-hot labels, divided by N.
    """
    if logits.ndim == 0:
        raise ShapeError("softmax_cross_entropy needs at least 1-D logits")
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != logits.shape[:-1]:
        raise ShapeError(f"softmax_cross_entropy: labels shape {labels.shape} does not "
                         f"match logits shape {logits.shape}")
    n = logits.shape[-1]
    if ((labels < 0) | (labels >= n)).any():
        raise IndexError(f"labels {labels.tolist()} out of range for {n} classes")
    z = logits.values.astype(np.float64, copy=False)
    shifted = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    losses = lse - np.take_along_axis(shifted, labels[..., None], axis=-1)
    vals = np.asarray(losses.mean())

    def back(g):
        p = np.exp(shifted - lse) - (labels[..., None] == np.arange(n))
        return (float(g) / losses.size * p,)

    return _make_node(vals, "softmax_cross_entropy", (logits,), back)
