"""Fusion head: combine the two branch features, classify, score the loss.

The image feature vector and the text feature vector are concatenated
(image block first) and pushed through three fully-connected layers into a
2-way softmax. A model with one branch feeds its features to the same head,
which is how the image-only and text-only baselines are trained.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .autodiff import (LayerParams, Tensor, bias_add, check_int, concat,
                       init_layers, matmul, relu, softmax_cross_entropy, stable_softmax)
from .image import (ConvStackConfig, ConvLayerSpec, encode_image, init_image_params,
                    preprocess_image)
from .text import EmbeddingTable, TextConfig, encode_sentence_matrix, init_text_params, tokenize

MODALITIES = ("fused", "image", "text")

NUM_CLASSES = 2


@dataclass(frozen=True)
class FusionConfig:
    """Everything needed to rebuild a model's parameter shapes; a None branch is absent."""

    image: Optional[ConvStackConfig]
    text: Optional[TextConfig]
    hidden1: int = 256
    hidden2: int = 64
    dtype: str = "float32"

    def __post_init__(self):
        if self.image is None and self.text is None:
            raise ValueError("a model needs an image branch, a text branch or both")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")
        check_int("hidden1", self.hidden1)
        check_int("hidden2", self.hidden2)

    @property
    def modality(self) -> str:
        """The name of the branch set: "fused", "image" or "text"."""
        if self.image is None:
            return "text"
        return "image" if self.text is None else "fused"

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    @property
    def feature_size(self) -> int:
        """Width of the fused features the head reads: the branches' sizes summed."""
        return sum(b.feature_size for b in (self.image, self.text) if b is not None)

    def head_layers(self) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
        """(layer number, weight shape, bias shape) of each fully-connected layer."""
        widths = [self.feature_size, self.hidden1, self.hidden2, NUM_CLASSES]
        return [(i, (widths[i - 1], widths[i]), (widths[i],)) for i in range(1, len(widths))]

    def param_shapes(self) -> list[tuple[int, ...]]:
        """Every parameter tensor's shape in checkpoint order, flattened from
        the layer lists the model is built from: what a checkpoint's size is
        checked against before the loader allocates anything."""
        layers = [layer for branch in (self.image, self.text) if branch is not None
                  for layer in branch.param_layers()] + self.head_layers()
        return [shape for _, w_shape, b_shape in layers for shape in (w_shape, b_shape)]


# The "full" conv stack mirrors the classic 5-layer configuration: 96/256/384/384/256
# channels, 11/5/3/3/3 kernels, stride 4 then 1, LRN after layers 1-2, pooling
# after layers 1, 2, 5. Feature size at 224x224 input: 256*6*6 = 9216.
# The "tiny" stack (16x16 input, feature size 8*2*2 = 32) keeps the same
# LRN/pool placement and is the default for tests and desk-scale experiments.
PRESETS = {
    "full": FusionConfig(
        image=ConvStackConfig(
            layers=(
                ConvLayerSpec(96, 11, stride=4, pad=2, has_lrn=True, pool_window=3, pool_stride=2),
                ConvLayerSpec(256, 5, stride=1, pad=2, has_lrn=True, pool_window=3, pool_stride=2),
                ConvLayerSpec(384, 3, stride=1, pad=1),
                ConvLayerSpec(384, 3, stride=1, pad=1),
                ConvLayerSpec(256, 3, stride=1, pad=1, pool_window=3, pool_stride=2),
            ),
            input_side=224,
        ),
        text=TextConfig(filters_per_width=100), hidden1=256, hidden2=64),
    "tiny": FusionConfig(
        image=ConvStackConfig(
            layers=(
                ConvLayerSpec(4, 3, stride=1, pad=1, has_lrn=True, pool_window=2, pool_stride=2),
                ConvLayerSpec(4, 3, stride=1, pad=1, has_lrn=True, pool_window=2, pool_stride=2),
                ConvLayerSpec(8, 3, stride=1, pad=1),
                ConvLayerSpec(8, 3, stride=1, pad=1),
                ConvLayerSpec(8, 3, stride=1, pad=1, pool_window=2, pool_stride=2),
            ),
            input_side=16,
        ),
        text=TextConfig(filters_per_width=2), hidden1=16, hidden2=8),
}


def fusion_preset(name: str, modality: str = "fused", dtype: str = "float32") -> FusionConfig:
    """A ``PRESETS`` model scale at ``dtype``; the branch ``modality`` leaves out is None."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (have {sorted(PRESETS)})")
    if modality not in MODALITIES:
        raise ValueError(f"modality must be one of {MODALITIES}, got {modality!r}")
    whole = PRESETS[name]
    return replace(whole, image=whole.image if modality != "text" else None,
                   text=whole.text if modality != "image" else None, dtype=dtype)


@dataclass
class FusionModelParams:
    """All learnable tensors of a model plus the config that shaped them."""

    config: FusionConfig
    image_params: Optional[LayerParams]
    text_params: Optional[LayerParams]
    head: LayerParams

    def named_tensors(self) -> dict[str, Tensor]:
        """Stable name -> tensor map; iteration order is the checkpoint order."""
        out: dict[str, Tensor] = {}
        for part in (self.image_params, self.text_params, self.head):
            if part is not None:
                out.update(part.named_tensors())
        return out

    def tensors(self) -> list[Tensor]:
        return list(self.named_tensors().values())

    def frozen(self) -> "FusionModelParams":
        """The constant twin that inference runs on (``LayerParams.frozen``)."""
        parts = (self.image_params, self.text_params, self.head)
        return FusionModelParams(self.config, *(None if p is None else p.frozen() for p in parts))


def init_model(config: FusionConfig, seed: int = 0) -> FusionModelParams:
    """Glorot-uniform weights (``init_layers``), zero biases; image, text and
    head layers draw from one generator in that order."""
    return _build_model(config, np.random.default_rng(seed))


def empty_model(config: FusionConfig) -> FusionModelParams:
    """Same parameter structure as ``init_model`` but all zeros (loader target)."""
    return _build_model(config, None)


def _build_model(config: FusionConfig, rng: Optional[np.random.Generator]) -> FusionModelParams:
    dtype = config.np_dtype
    return FusionModelParams(
        config=config,
        image_params=None if config.image is None else init_image_params(config.image, rng, dtype),
        text_params=None if config.text is None else init_text_params(config.text, rng, dtype),
        head=init_layers(config, "fc", config.head_layers(), rng, dtype))


def head_logits(x: Tensor, params: FusionModelParams) -> Tensor:
    """Three fully-connected layers with ReLU between; (N, features) in, (N, 2)
    raw logits out."""
    h = x
    head = params.head
    for i, w in head.weights.items():
        h = bias_add(matmul(h, w), head.biases[i])
        if i < len(head.weights):
            h = relu(h)
    return h


def forward(x: Tensor, params: FusionModelParams) -> np.ndarray:
    """Class distributions [p_neg, p_pos], one row per row of fused features;
    a ``ValueError`` if one is not finite."""
    probs = stable_softmax(head_logits(x, params).values)
    if not np.isfinite(probs).all():
        raise ValueError("the class probabilities are not finite: the parameters or "
                         "inputs overflow the model's arithmetic")
    return probs


@dataclass
class ModelSample:
    """One training/evaluation item, already decoded and tokenized."""

    image: Optional[np.ndarray]  # (3, S, S), preprocessed
    tokens: Optional[list[str]]
    label: int


def encode_inputs(images: Sequence, token_lists: Sequence, params: FusionModelParams,
                  table: Optional[EmbeddingTable]) -> Tensor:
    """(N, feature_size) branch features of a batch: with both branches, each
    row is its image block followed by its text block.

    ``images`` and ``token_lists`` hold one entry per sample; entries for a
    branch the model lacks may be None.
    """
    cfg = params.config
    parts = []
    if cfg.image is not None:
        if any(img is None for img in images):
            raise ValueError("model needs an image input")
        parts.append(encode_image(np.stack(images), params.image_params))
    if cfg.text is not None:
        if any(tokens is None for tokens in token_lists):
            raise ValueError("model needs a text input")
        if table is None:
            raise ValueError("text encoding needs an embedding table")
        parts.append(encode_sentence_matrix(token_lists, table, params.text_params))
    return concat(parts, axis=1) if len(parts) == 2 else parts[0]


def batch_loss(batch: Sequence[ModelSample], params: FusionModelParams,
               table: Optional[EmbeddingTable]) -> Tensor:
    """Mean cross-entropy of the full pipeline over a batch, as one graph."""
    if len(batch) == 0:
        raise ValueError("batch_loss of an empty batch")
    labels = [s.label for s in batch]
    if any(label not in (0, 1) for label in labels):
        raise ValueError(f"labels must be 0 or 1, got {labels}")
    x = encode_inputs([s.image for s in batch], [s.tokens for s in batch], params, table)
    return softmax_cross_entropy(head_logits(x, params), labels)


@dataclass
class Prediction:
    label: int
    p_neg: float
    p_pos: float


def predicted_label(probs: np.ndarray) -> np.ndarray:
    """Argmax of each [p_neg, p_pos] row; ties go to label 0."""
    return np.where(probs[..., 0] >= probs[..., 1], 0, 1)


def predict(image, text, params: FusionModelParams,
            table: Optional[EmbeddingTable]) -> Prediction:
    """Classify one raw (H, W, 3) image / text pair as a batch of one; ties go
    to label 0.

    ``image`` is decoded pixels and ``text`` a raw string; preprocessing and
    tokenizing happen here. Inputs for a branch the model lacks may be None.
    The forward runs on constant parameters, so it records no graph.
    """
    params = params.frozen()
    cfg = params.config
    img = None
    if cfg.image is not None:
        img = preprocess_image(image, cfg.image.input_side, dtype=cfg.np_dtype)
    tokens = None if cfg.text is None else tokenize(text)
    probs = forward(encode_inputs([img], [tokens], params, table), params)[0]
    return Prediction(label=int(predicted_label(probs)), p_neg=float(probs[0]),
                      p_pos=float(probs[1]))


# -- config (de)serialization for checkpoints --------------------------------


def config_to_dict(config: FusionConfig) -> dict:
    """Every config field, nested configs as dicts; an absent branch is left out."""
    return {key: value for key, value in asdict(config).items() if value is not None}


def config_from_dict(d: dict) -> FusionConfig:
    """Inverse of ``config_to_dict``: the model has the branches whose blocks
    are present."""
    image = text = None
    if "image" in d:
        img = d["image"]
        image = ConvStackConfig(layers=tuple(ConvLayerSpec(**layer) for layer in img["layers"]),
                                input_side=img["input_side"])
    if "text" in d:
        tx = d["text"]
        text = TextConfig(dim=tx["dim"], max_len=tx["max_len"], widths=tuple(tx["widths"]),
                          filters_per_width=tx["filters_per_width"],
                          nonlinearity=tx["nonlinearity"])
    return FusionConfig(image=image, text=text, hidden1=d["hidden1"], hidden2=d["hidden2"],
                        dtype=d["dtype"])
