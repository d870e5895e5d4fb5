"""Independent brute-force reference implementations.

Deliberately naive: explicit nested loops, no im2col, no vectorized window
tricks, no code shared with the package. These are the second route of every
dual-route check. ``project`` is the one exception: it builds a test's scalar
loss with the package's ``matmul``, as ``dfsn.verify`` does.
"""

import math

import numpy as np

from dfsn.autodiff import Tensor, matmul


def project(out, weights=None):
    """The scalar sum(out * weights) as a Tensor: one ``matmul`` of the
    flattened ``out`` with a column of ``weights``. Constant weights are
    array-like (all ones when None); a Tensor of ``out``'s size gets a
    gradient too."""
    if not isinstance(weights, Tensor):
        weights = Tensor(np.ones(out.shape) if weights is None else np.asarray(weights, np.float64))
    return matmul(out.reshape(1, -1), weights.reshape(-1, 1)).reshape(())


def conv2d_loops(x, kernels, bias, stride=1, pad=0):
    """Six-deep-loop cross-correlation over a (C_in, H, W) input."""
    c_in, h, w = x.shape
    c_out, _, kh, kw = kernels.shape
    xp = np.zeros((c_in, h + 2 * pad, w + 2 * pad), dtype=np.float64)
    xp[:, pad:pad + h, pad:pad + w] = x
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((c_out, ho, wo), dtype=np.float64)
    for co in range(c_out):
        for i in range(ho):
            for j in range(wo):
                acc = float(bias[co])
                for ci in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            acc += float(xp[ci, i * stride + a, j * stride + b]) * \
                                float(kernels[co, ci, a, b])
                out[co, i, j] = acc
    return out


def maxpool2d_loops(x, window, stride):
    """Per-window maximum via explicit scanning."""
    c, h, w = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    out = np.zeros((c, ho, wo), dtype=np.float64)
    for ci in range(c):
        for i in range(ho):
            for j in range(wo):
                best = -math.inf
                for a in range(window):
                    for b in range(window):
                        v = float(x[ci, i * stride + a, j * stride + b])
                        if v > best:
                            best = v
                out[ci, i, j] = best
    return out


def maxpool2d_picks_loops(x, window, stride):
    """Row-major offset (a * window + b) of each window's first maximum."""
    c, h, w = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    picks = np.zeros((c, ho, wo), dtype=np.int64)
    for ci in range(c):
        for i in range(ho):
            for j in range(wo):
                best = -math.inf
                for a in range(window):
                    for b in range(window):
                        v = float(x[ci, i * stride + a, j * stride + b])
                        if v > best:
                            best = v
                            picks[ci, i, j] = a * window + b
    return picks


def lrn_loops(x, depth_radius, k, alpha, beta):
    """Direct per-position evaluation of the cross-channel normalization."""
    c, h, w = x.shape
    out = np.zeros_like(x, dtype=np.float64)
    for ci in range(c):
        lo = max(0, ci - depth_radius)
        hi = min(c - 1, ci + depth_radius)
        for i in range(h):
            for j in range(w):
                s = 0.0
                for cc in range(lo, hi + 1):
                    s += float(x[cc, i, j]) ** 2
                out[ci, i, j] = float(x[ci, i, j]) / (k + alpha * s) ** beta
    return out


def text_windows_loops(matrix, n, h, weight, bias, nonlinearity):
    """Feature map of one filter bank over a padded sentence matrix.

    ``weight`` is (h*k, F); returns (L, F) with L = max(n - h + 1, 1),
    the short-sentence case taking a single window over the padding.
    """
    k = matrix.shape[1]
    length = n - h + 1 if n >= h else 1
    f = weight.shape[1]
    out = np.zeros((length, f), dtype=np.float64)
    for i in range(length):
        flat = []
        for row in range(i, i + h):
            for col in range(k):
                flat.append(float(matrix[row, col]))
        for fi in range(f):
            acc = float(bias[fi])
            for pos in range(h * k):
                acc += flat[pos] * float(weight[pos, fi])
            if nonlinearity == "tanh":
                acc = math.tanh(acc)
            elif nonlinearity == "relu":
                acc = max(0.0, acc)
            out[i, fi] = acc
    return out


def matmul_loops(a, b):
    """Nested-loop dot products."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def bilinear_resize_loops(img, out_h, out_w):
    """Per-output-pixel bilinear sampling with half-pixel centers."""
    h, w, c = img.shape
    out = np.zeros((out_h, out_w, c), dtype=np.float64)
    for i in range(out_h):
        sy = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(sy))
        y1 = min(y0 + 1, h - 1)
        fy = sy - y0
        for j in range(out_w):
            sx = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(sx))
            x1 = min(x0 + 1, w - 1)
            fx = sx - x0
            for ch in range(c):
                top = float(img[y0, x0, ch]) * (1 - fx) + float(img[y0, x1, ch]) * fx
                bot = float(img[y1, x0, ch]) * (1 - fx) + float(img[y1, x1, ch]) * fx
                out[i, j, ch] = top * (1 - fy) + bot * fy
    return out


def bilinear_resize_four_corner(img, out_h, out_w):
    """Vectorised bilinear resize that reads all four corners of every output.

    The unfactored form: each output row gathers its top and bottom input
    rows, interpolates each along x, then blends the two along y. It keeps the
    coordinate arithmetic of the package's resize, so a separable resize that
    does the same per-element arithmetic must match it bit for bit.
    """
    h, w, _ = img.shape

    def axis_coords(n_in, n_out):
        src = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.intp)
        return lo, np.minimum(lo + 1, n_in - 1), src - lo

    y0, y1, fy = axis_coords(h, out_h)
    x0, x1, fx = axis_coords(w, out_w)
    fy = fy[:, None, None]
    fx = fx[None, :, None]
    top = img[y0][:, x0] * (1 - fx) + img[y0][:, x1] * fx
    bottom = img[y1][:, x0] * (1 - fx) + img[y1][:, x1] * fx
    return top * (1 - fy) + bottom * fy
