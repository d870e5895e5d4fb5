"""Text branch: tokens to the textual sentiment representation.

Static word vectors live as the rows of one float64 matrix in the
``EmbeddingTable``. A sentence becomes a list of row ids, and
``encode_sentence_matrix`` takes a batch's token rows in one gather over the
ids of all its sentences. Windowed filters slide over each sentence's rows at
several widths, and each filter's feature map is pooled into [max, mean,
min]. The concatenation of those pooled triples is the text feature vector.
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .autodiff import (LayerParams, Tensor, ShapeError, bias_add, check_int, concat,
                       init_layers, tanh_op, triple_pool_columns, window_filter)

DEFAULT_DIM = 200
DEFAULT_MAX_LEN = 150
DEFAULT_WIDTHS = (3, 4, 5)
OOV_SCALE = 0.25

_STRIP_CHARS = string.punctuation + "‘’“”"


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip surrounding punctuation.

    Tokens that are empty after stripping are dropped, so punctuation-only
    chunks disappear.
    """
    tokens = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP_CHARS)
        if tok:
            tokens.append(tok)
    return tokens


def oov_vector(word: str, dim: int, seed: int = 0) -> np.ndarray:
    """Deterministic vector for a word missing from the table.

    The word bytes and the seed are hashed (stable across runs and platforms)
    into a PRNG stream that draws uniformly from [-0.25, 0.25].
    """
    digest = hashlib.blake2b(word.encode("utf-8"), digest_size=16,
                             key=str(seed).encode("utf-8")).digest()
    entropy = int.from_bytes(digest, "little")
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    return gen.uniform(-OOV_SCALE, OOV_SCALE, size=dim)


class EmbeddingTable:
    """Word vectors as the rows of one (rows, dim) float64 matrix, with a
    deterministic out-of-vocabulary fallback.

    Row 0 is the zero padding row and no word maps to it. The words given at
    construction (the vector file's) take the rows after it in order; an
    unknown word gets its ``oov_vector`` row appended on first lookup, so its
    values do not depend on the order words are first seen. Storage doubles
    when full, so appends are amortised. Vectors are frozen: nothing here ever
    receives a gradient.
    """

    def __init__(self, dim: int = DEFAULT_DIM, vectors: Optional[dict[str, np.ndarray]] = None,
                 fallback_seed: int = 0):
        if dim < 1:
            raise ValueError(f"embedding dimension must be positive, got {dim}")
        self.dim = dim
        self.fallback_seed = fallback_seed
        vectors = vectors or {}
        self._storage = np.zeros((1 + len(vectors), dim), dtype=np.float64)
        self._rows: dict[str, int] = {}
        for row, (word, vec) in enumerate(vectors.items(), start=1):
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (dim,):
                raise ValueError(f"vector for {word!r} has shape {arr.shape}, expected ({dim},)")
            self._storage[row] = arr
            self._rows[word] = row

    @property
    def matrix(self) -> np.ndarray:
        """The (rows in use, dim) float64 rows that row ids index. Read it after
        ``row_ids``: appending a row may move the storage."""
        return self._storage[:1 + len(self._rows)]

    def row_ids(self, tokens: Sequence[str]) -> list[int]:
        """Each token's row, appending the row of a word seen for the first time."""
        rows = self._rows
        return [rows.get(word) or self._append(word) for word in tokens]

    def _append(self, word: str) -> int:
        row = 1 + len(self._rows)
        if row == len(self._storage):
            grown = np.zeros((2 * row, self.dim), dtype=np.float64)
            grown[:row] = self._storage
            self._storage = grown
        self._storage[row] = oov_vector(word, self.dim, self.fallback_seed)
        self._rows[word] = row
        return row


@dataclass
class SentenceMatrix:
    """Fixed-size embedding matrix for one sentence.

    ``matrix`` is (max_len, dim); rows past the true token count ``n`` hold
    the padding vector. ``n`` never exceeds ``max_len`` (longer token lists
    are truncated).
    """

    matrix: np.ndarray
    n: int


def embed_sentence(tokens: Sequence[str], table: EmbeddingTable,
                   max_len: int = DEFAULT_MAX_LEN) -> SentenceMatrix:
    """One sentence's rows gathered from the table in token order, truncated
    and zero-padded to max_len.

    Zero padding rows are neutral under the dot products the filters take.
    """
    ids = table.row_ids(tokens[:max_len])
    return SentenceMatrix(matrix=table.matrix[ids + [0] * (max_len - len(ids))], n=len(ids))


@dataclass(frozen=True)
class TextConfig:
    """Shape of the text branch: embedding size, truncation, filter bank."""

    dim: int = DEFAULT_DIM
    max_len: int = DEFAULT_MAX_LEN
    widths: tuple[int, ...] = DEFAULT_WIDTHS
    filters_per_width: int = 100
    nonlinearity: str = "tanh"

    def __post_init__(self):
        for name in ("dim", "max_len", "filters_per_width"):
            check_int(name, getattr(self, name))
        if not self.widths:
            raise ValueError("at least one filter width is needed")
        for h in self.widths:
            check_int("filter width", h)
        if tuple(sorted(self.widths)) != tuple(self.widths):
            raise ValueError("filter widths must be ascending")
        if self.max_len < self.widths[-1]:
            raise ValueError("max_len must hold one window of the widest filter")
        if self.nonlinearity not in ("tanh", "identity"):
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")

    @property
    def feature_size(self) -> int:
        # three pooled values per filter
        return 3 * self.filters_per_width * len(self.widths)

    def param_layers(self) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
        """(width, weight shape, bias shape) of each width's filters, in checkpoint order."""
        f = self.filters_per_width
        return [(h, (h * self.dim, f), (f,)) for h in self.widths]


TEXT_PRESETS = {
    "full": TextConfig(filters_per_width=100),
    "tiny": TextConfig(filters_per_width=2),
}


def text_preset(name: str) -> TextConfig:
    try:
        return TEXT_PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown text preset {name!r} (have {sorted(TEXT_PRESETS)})") from None


def init_text_params(config: TextConfig, rng: Optional[np.random.Generator],
                     dtype=np.float32) -> LayerParams:
    """Per width h a (h*dim, F) filter bank ``text.w{h}`` and its (F,) bias,
    by ``init_layers``."""
    return init_layers(config, "text.w", config.param_layers(), rng, dtype)


def _filter_map(tokens: np.ndarray, h: int, params: LayerParams) -> Tensor:
    """f(w . window + b) for every filter (columns) and every h-row window of
    ``tokens`` (rows), from shift-added per-offset products: no window is
    formed. Differentiable with respect to the filter weights and biases only."""
    pre = bias_add(window_filter(tokens, params.weights[h], h), params.biases[h])
    return tanh_op(pre) if params.config.nonlinearity == "tanh" else pre


def text_feature_maps(sm: SentenceMatrix, params: LayerParams) -> dict[int, Tensor]:
    """Per-width feature maps of one sentence, shape (n - h + 1, F) for width h.

    Windows cover the true length only; a sentence shorter than h contributes
    a single window over the zero-padded matrix so no width ever goes empty.
    """
    return {h: _filter_map(sm.matrix[:max(sm.n, h)], h, params) for h in params.config.widths}


def encode_sentence_matrix(token_lists: Sequence[Sequence[str]], table: EmbeddingTable,
                           params: LayerParams) -> Tensor:
    """Text branch from a batch of token lists to an (N, features) tensor.

    Each row has 3 * filters_per_width * len(widths) features, laid out
    width-ascending then filter-index-ascending, each filter contributing its
    [max, mean, min] block. The rows of every sentence, truncated to max_len,
    come from one gather; each width runs its filters once over all of them,
    and a sentence pools only its own windows (those ``text_feature_maps``
    gives it).
    """
    cfg = params.config
    if table.dim != cfg.dim:
        raise ShapeError(f"embedding dim {table.dim} != text branch dim {cfg.dim}")
    ids: list[int] = []
    lengths = []
    for tokens in token_lists:
        row = table.row_ids(tokens[:cfg.max_len])
        ids += row
        # zero rows up to one window of the widest filter
        ids += [0] * (cfg.widths[-1] - len(row))
        lengths.append(len(row))
    # cast once: a float32 model's text branch and head run float32
    rows = table.matrix[ids].astype(params.weights[cfg.widths[0]].dtype, copy=False)
    lengths = np.array(lengths, dtype=np.intp)
    spans = np.maximum(lengths, cfg.widths[-1])
    starts = np.cumsum(spans) - spans
    blocks = []
    for h in cfg.widths:
        counts = np.maximum(lengths, h) - h + 1
        pooled = triple_pool_columns(_filter_map(rows, h, params), starts, counts)  # (N, F, 3)
        blocks.append(pooled.reshape(len(lengths), -1))
    return concat(blocks, axis=1)
