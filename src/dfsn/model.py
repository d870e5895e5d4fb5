"""Fusion head: combine the two branch features, classify, score the loss.

The image feature vector and the text feature vector are concatenated
(image block first) and pushed through three fully-connected layers into a
2-way softmax. A model with one branch feeds its features to the same head,
which is how the image-only and text-only baselines are trained.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .autodiff import (Tensor, ShapeError, bias_add, check_int, concat, matmul, relu,
                       softmax_cross_entropy, stable_softmax)
from .image import (ConvStackConfig, ConvLayerSpec, ImageBranchParams,
                    encode_image, image_preset, init_image_params, preprocess_image)
from .text import (EmbeddingTable, TextBranchParams, TextConfig, encode_sentence_matrix,
                   gather_sentence_rows, init_text_params, text_preset, tokenize)

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
    def fused_size(self) -> int:
        return sum(b.feature_size for b in (self.image, self.text) if b is not None)

    def head_shapes(self) -> list[tuple[int, ...]]:
        """Weight then bias shape of each fully-connected layer."""
        widths = [self.fused_size, self.hidden1, self.hidden2, NUM_CLASSES]
        return [shape for fan_in, fan_out in zip(widths[:-1], widths[1:])
                for shape in ((fan_in, fan_out), (fan_out,))]

    def param_shapes(self) -> list[tuple[int, ...]]:
        """Every parameter tensor's shape in checkpoint order: the layout the
        model is built with, and what a checkpoint's size is checked against
        before the loader allocates anything."""
        return [shape for branch in (self.image, self.text) if branch is not None
                for shape in branch.param_shapes()] + self.head_shapes()


def fusion_preset(name: str, modality: str = "fused", dtype: str = "float32") -> FusionConfig:
    """Named model scales: "full" (224px, 100 filters, 256/64 head) or "tiny".
    The branch ``modality`` leaves out is None."""
    hidden = {"full": (256, 64), "tiny": (16, 8)}
    if name not in hidden:
        raise ValueError(f"unknown preset {name!r} (have 'full', 'tiny')")
    if modality not in MODALITIES:
        raise ValueError(f"modality must be one of {MODALITIES}, got {modality!r}")
    return FusionConfig(image=image_preset(name) if modality != "text" else None,
                        text=text_preset(name) if modality != "image" else None,
                        hidden1=hidden[name][0], hidden2=hidden[name][1], dtype=dtype)


@dataclass
class FusionModelParams:
    """All learnable tensors of a model plus the config that shaped them."""

    config: FusionConfig
    image_params: Optional[ImageBranchParams]
    text_params: Optional[TextBranchParams]
    fc_weights: list[Tensor] = field(default_factory=list)
    fc_biases: list[Tensor] = field(default_factory=list)

    def named_tensors(self) -> dict[str, Tensor]:
        """Stable name -> tensor map; iteration order is the checkpoint order."""
        out: dict[str, Tensor] = {}
        if self.image_params is not None:
            out.update(self.image_params.named_tensors())
        if self.text_params is not None:
            out.update(self.text_params.named_tensors())
        for i, (w, b) in enumerate(zip(self.fc_weights, self.fc_biases), start=1):
            out[f"fc{i}.weight"] = w
            out[f"fc{i}.bias"] = b
        return out

    def tensors(self) -> list[Tensor]:
        return list(self.named_tensors().values())


class _ZeroDraws:
    """Init-generator stand-in whose uniform draws are zeros, so ``empty_model``
    shares ``init_model``'s layout code without making any random draw."""

    def uniform(self, low, high, size) -> np.ndarray:
        return np.zeros(size)


def init_model(config: FusionConfig, seed: int = 0) -> FusionModelParams:
    """Uniform [-a, a] weights with a = sqrt(6 / (fan_in + fan_out)), zero biases."""
    return _build_model(config, np.random.default_rng(seed))


def empty_model(config: FusionConfig) -> FusionModelParams:
    """Same parameter structure as ``init_model`` but all zeros (loader target)."""
    return _build_model(config, _ZeroDraws())


def _build_model(config: FusionConfig, rng) -> FusionModelParams:
    dtype = config.np_dtype
    image_params = None
    text_params = None
    if config.image is not None:
        image_params = init_image_params(config.image, rng, dtype)
    if config.text is not None:
        text_params = init_text_params(config.text, rng, dtype)
    fc_w, fc_b = [], []
    shapes = config.head_shapes()
    for weight_shape, bias_shape in zip(shapes[::2], shapes[1::2]):
        fan_in, fan_out = weight_shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=weight_shape)
        fc_w.append(Tensor(w.astype(dtype), requires_grad=True))
        fc_b.append(Tensor(np.zeros(bias_shape, dtype=dtype), requires_grad=True))
    return FusionModelParams(config=config, image_params=image_params,
                             text_params=text_params, fc_weights=fc_w, fc_biases=fc_b)


def fuse(x_i: Tensor, x_t: Tensor) -> Tensor:
    """Concatenate the image feature block before the text feature block of each row."""
    if x_i.shape[-1] == 0 or x_t.shape[-1] == 0:
        raise ShapeError("fuse: both modalities are mandatory, got an empty feature vector")
    return concat([x_i, x_t], axis=-1)


def head_logits(x: Tensor, params: FusionModelParams) -> Tensor:
    """Three fully-connected layers with ReLU between; (N, features) in, (N, 2)
    raw logits out."""
    h = x
    last = len(params.fc_weights) - 1
    for i, (w, b) in enumerate(zip(params.fc_weights, params.fc_biases)):
        h = bias_add(matmul(h, w), b)
        if i < last:
            h = relu(h)
    return h


def forward(x: Tensor, params: FusionModelParams) -> np.ndarray:
    """Class distributions [p_neg, p_pos], one row per row of fused features."""
    return stable_softmax(head_logits(x, params).values)


@dataclass
class ModelSample:
    """One training/evaluation item, already decoded and tokenized."""

    image: Optional[np.ndarray]  # (3, S, S), preprocessed
    tokens: Optional[list[str]]
    label: int
    id: str = ""


def encode_inputs(images: Sequence, token_lists: Sequence, params: FusionModelParams,
                  table: Optional[EmbeddingTable]) -> Tensor:
    """(N, fused_size) branch features of a batch, fused if the model uses both.

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
        rows, lengths = gather_sentence_rows(token_lists, table, cfg.text)
        parts.append(encode_sentence_matrix(rows, lengths, params.text_params))
    return fuse(*parts) if len(parts) == 2 else parts[0]


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

    ``image`` is decoded pixels (preprocessing happens here); ``text`` may be
    a raw string or a token list. Inputs for a branch the model lacks may be
    None.
    """
    cfg = params.config
    img = None
    if cfg.image is not None:
        img = preprocess_image(image, cfg.image.input_side, dtype=cfg.np_dtype)
    tokens = None
    if cfg.text is not None:
        tokens = tokenize(text) if isinstance(text, str) else list(text)
    probs = forward(encode_inputs([img], [tokens], params, table), params)[0]
    return Prediction(label=int(predicted_label(probs)), p_neg=float(probs[0]),
                      p_pos=float(probs[1]))


# -- config (de)serialization for checkpoints --------------------------------


def config_to_dict(config: FusionConfig) -> dict:
    """Every config field and the derived ``modality`` (which older readers
    need), nested configs as dicts; an absent branch is left out."""
    out = {key: value for key, value in asdict(config).items() if value is not None}
    return {**out, "modality": config.modality}


def config_from_dict(d: dict) -> FusionConfig:
    """Inverse of ``config_to_dict``. Only the branch blocks the stored
    modality uses are read: older single-modality files carry the unused one."""
    modality = d["modality"]
    if modality not in MODALITIES:
        raise ValueError(f"stored modality {modality!r} is not one of {MODALITIES}")
    image = None
    if modality != "text":
        img = d["image"]
        image = ConvStackConfig(
            layers=tuple(ConvLayerSpec(**layer) for layer in img["layers"]),
            input_side=img["input_side"], in_channels=img["in_channels"],
            preset=img.get("preset", "custom"))
    text = None
    if modality != "image":
        tx = d["text"]
        text = TextConfig(dim=tx["dim"], max_len=tx["max_len"], widths=tuple(tx["widths"]),
                          filters_per_width=tx["filters_per_width"],
                          nonlinearity=tx["nonlinearity"])
    return FusionConfig(image=image, text=text, hidden1=d["hidden1"], hidden2=d["hidden2"],
                        dtype=d["dtype"])
