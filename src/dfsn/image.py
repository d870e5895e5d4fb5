"""Image branch: raw RGB pixels to the visual sentiment representation.

A five-layer convolution stack (conv, ReLU, optional cross-channel
normalization, optional max pooling per layer) ends in a max pooling layer
whose flattened output is the image feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import (LayerParams, Tensor, ShapeError, check_int, conv2d, init_layers, lrn,
                       maxpool2d, relu)

# the per-channel dataset mean that preprocessing subtracts
CHANNEL_MEAN = 0.5


@dataclass(frozen=True)
class ConvLayerSpec:
    """One stack layer: convolution geometry plus its optional tail layers."""

    out_channels: int
    kernel: int
    stride: int = 1
    pad: int = 0
    has_lrn: bool = False
    pool_window: Optional[int] = None
    pool_stride: Optional[int] = None

    def __post_init__(self):
        for name in ("out_channels", "kernel", "stride"):
            check_int(name, getattr(self, name))
        check_int("pad", self.pad, low=0)
        if not isinstance(self.has_lrn, bool):
            raise TypeError(f"has_lrn must be a bool, got {self.has_lrn!r}")
        if (self.pool_window is None) != (self.pool_stride is None):
            raise ValueError("pool_window and pool_stride are set together or not at all")
        if self.has_pool:
            check_int("pool_window", self.pool_window)
            check_int("pool_stride", self.pool_stride)

    @property
    def has_pool(self) -> bool:
        return self.pool_window is not None


@dataclass(frozen=True)
class ConvStackConfig:
    """Geometry of the five-layer stack and its input side length."""

    layers: tuple[ConvLayerSpec, ...]
    input_side: int = 224
    in_channels: int = 3
    preset: str = "custom"

    def __post_init__(self):
        check_int("input_side", self.input_side)
        check_int("in_channels", self.in_channels)
        if len(self.layers) != 5:
            raise ValueError(f"the stack has exactly 5 convolutional layers, got {len(self.layers)}")
        if not self.layers[-1].has_pool:
            raise ValueError("the final layer must end in max pooling; its output is the feature")
        self.layer_shapes()  # raises if a layer collapses the spatial extent

    def layer_shapes(self) -> list[tuple[int, int, int]]:
        """(channels, height, width) after each full layer, input excluded."""
        c, h, w = self.in_channels, self.input_side, self.input_side
        shapes = []
        for i, spec in enumerate(self.layers):
            h = (h + 2 * spec.pad - spec.kernel) // spec.stride + 1
            w = (w + 2 * spec.pad - spec.kernel) // spec.stride + 1
            c = spec.out_channels
            if h < 1 or w < 1:
                raise ValueError(f"layer {i + 1} collapses the spatial extent to {h}x{w}")
            if spec.has_pool:
                h = (h - spec.pool_window) // spec.pool_stride + 1
                w = (w - spec.pool_window) // spec.pool_stride + 1
                if h < 1 or w < 1:
                    raise ValueError(f"layer {i + 1}'s pooling collapses the extent to {h}x{w}")
            shapes.append((c, h, w))
        return shapes

    @property
    def feature_size(self) -> int:
        c, h, w = self.layer_shapes()[-1]
        return c * h * w

    def param_layers(self) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
        """(layer number, kernel shape, bias shape) of each layer, in checkpoint order."""
        c_in = [self.in_channels] + [spec.out_channels for spec in self.layers]
        return [(i, (spec.out_channels, c_in[i - 1], spec.kernel, spec.kernel),
                 (spec.out_channels,)) for i, spec in enumerate(self.layers, start=1)]


# The "full" stack mirrors the classic 5-layer configuration: 96/256/384/384/256
# channels, 11/5/3/3/3 kernels, stride 4 then 1, LRN after layers 1-2, pooling
# after layers 1, 2, 5. Feature size at 224x224 input: 256*6*6 = 9216.
# The "tiny" stack (16x16 input, feature size 8*2*2 = 32) keeps the same
# LRN/pool placement and is the default for tests and desk-scale experiments.
IMAGE_PRESETS = {
    "full": ConvStackConfig(
        layers=(
            ConvLayerSpec(96, 11, stride=4, pad=2, has_lrn=True, pool_window=3, pool_stride=2),
            ConvLayerSpec(256, 5, stride=1, pad=2, has_lrn=True, pool_window=3, pool_stride=2),
            ConvLayerSpec(384, 3, stride=1, pad=1),
            ConvLayerSpec(384, 3, stride=1, pad=1),
            ConvLayerSpec(256, 3, stride=1, pad=1, pool_window=3, pool_stride=2),
        ),
        input_side=224,
        preset="full",
    ),
    "tiny": ConvStackConfig(
        layers=(
            ConvLayerSpec(4, 3, stride=1, pad=1, has_lrn=True, pool_window=2, pool_stride=2),
            ConvLayerSpec(4, 3, stride=1, pad=1, has_lrn=True, pool_window=2, pool_stride=2),
            ConvLayerSpec(8, 3, stride=1, pad=1),
            ConvLayerSpec(8, 3, stride=1, pad=1),
            ConvLayerSpec(8, 3, stride=1, pad=1, pool_window=2, pool_stride=2),
        ),
        input_side=16,
        preset="tiny",
    ),
}


def image_preset(name: str) -> ConvStackConfig:
    try:
        return IMAGE_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown image preset {name!r} (have {sorted(IMAGE_PRESETS)})") from None


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize an (H, W, C) float array with half-pixel-centered bilinear sampling.

    Source coordinates are (dst + 0.5) * in/out - 0.5, clamped to the image;
    a same-size resize is therefore the identity.
    """
    if img.ndim != 3:
        raise ShapeError(f"bilinear_resize expects (H, W, C), got {img.shape}")
    h, w, _ = img.shape
    if h < 1 or w < 1 or out_h < 1 or out_w < 1:
        raise ValueError("bilinear_resize: empty image or empty target")

    def axis_coords(n_in: int, n_out: int):
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.intp)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = src - lo
        return lo, hi, frac

    y0, y1, fy = axis_coords(h, out_h)
    x0, x1, fx = axis_coords(w, out_w)
    fy = fy[:, None, None]
    fx = fx[None, :, None]
    # separable (x once per input row, then y); each output is the four-corner
    # form's arithmetic on the same values, so the two are bit-identical
    cols = img[:, x0] * (1 - fx) + img[:, x1] * fx
    return cols[y0] * (1 - fy) + cols[y1] * fy


def preprocess_image(raw: np.ndarray, side: int = 224, dtype=np.float64) -> np.ndarray:
    """Decoded (H, W, 3) pixels to a centered (3, side, side) float tensor.

    Pixels are scaled to [0, 1] (dividing by 255 when the input is integer),
    bilinearly resized, then shifted by ``CHANNEL_MEAN`` in every channel.
    """
    arr = np.asarray(raw)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ShapeError(f"expected (H, W, 3) pixels, got {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("empty image")
    scaled = arr.astype(np.float64)
    if np.issubdtype(arr.dtype, np.integer):
        scaled = scaled / 255.0
    resized = bilinear_resize(scaled, side, side)
    return (resized - CHANNEL_MEAN).transpose(2, 0, 1).astype(dtype)


def init_image_params(config: ConvStackConfig, rng: Optional[np.random.Generator],
                      dtype=np.float32) -> LayerParams:
    """Kernels ``image.conv1`` .. ``image.conv5`` and their biases, by ``init_layers``."""
    return init_layers(config, "image.conv", config.param_layers(), rng, dtype)


def encode_image(img, params: LayerParams) -> Tensor:
    """Run the stack and flatten each image's final pooling output.

    ``img`` is a (3, S, S) image or an (N, 3, S, S) batch array; the result
    is (features,) or (N, features). Shape mismatches raise with the
    offending layer named.
    """
    cfg = params.config
    x = Tensor(img)
    if x.ndim not in (3, 4) or x.shape[-3:] != (cfg.in_channels, cfg.input_side, cfg.input_side):
        raise ShapeError(
            f"input shape {x.shape} != expected "
            f"([N,] {cfg.in_channels}, {cfg.input_side}, {cfg.input_side})")
    for spec, (i, expected, _) in zip(cfg.layers, cfg.param_layers()):
        kern = params.weights[i]
        if kern.shape != expected:
            raise ShapeError(f"layer {i}: kernel shape {kern.shape} != {expected}")
        try:
            x = conv2d(x, kern, params.biases[i], stride=spec.stride, pad=spec.pad)
            x = relu(x)
            if spec.has_lrn:
                x = lrn(x)
            if spec.has_pool:
                x = maxpool2d(x, spec.pool_window, spec.pool_stride)
        except ShapeError as exc:
            raise ShapeError(f"layer {i}: {exc}") from None
    return x.reshape(x.shape[:-3] + (-1,))
