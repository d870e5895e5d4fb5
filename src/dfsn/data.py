"""Datasets and file formats: manifests, word vectors, PPM images,
checkpoints, and the synthetic cross-modal data generator.

Formats are deliberately minimal and self-describing: JSONL manifests,
the textual word-vector format ("count dim" header, one word per line),
binary PPM (P6) images, and a little-endian binary checkpoint with a CRC.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .model import (FusionConfig, FusionModelParams, ModelSample, config_from_dict,
                    config_to_dict, empty_model)
from .image import preprocess_image
from .text import EmbeddingTable, tokenize


class ManifestError(ValueError):
    """Malformed manifest file."""


class EmbeddingFormatError(ValueError):
    """Malformed word-vector file."""


class PpmFormatError(ValueError):
    """Malformed or unsupported PPM image."""


class CheckpointFormatError(ValueError):
    """Corrupt, mismatched, or unsupported checkpoint file."""


def utf8_lines(fh, path, error):
    """A UTF-8 text file's lines; a byte that does not decode raises ``error``."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


# -- manifests ----------------------------------------------------------------


@dataclass
class Sample:
    """One (image, text, binary label) record."""

    id: str
    image_path: str
    text: str
    label: int


@dataclass
class Manifest:
    samples: list[Sample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)


def _check_unique_ids(samples: Sequence[Sample], context: str) -> None:
    seen = set()
    for s in samples:
        if s.id in seen:
            raise ManifestError(f"{context}: duplicate sample id {s.id!r}")
        seen.add(s.id)


def load_manifest(path) -> Manifest:
    """Read a JSONL manifest: one {id, image, text, label} object per line."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(utf8_lines(fh, path, ManifestError), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from None
            except (ValueError, RecursionError) as exc:  # a too-long integer, too-deep nesting
                raise ManifestError(f"{path}: line {lineno}: invalid JSON ({exc})") from None
            if not isinstance(rec, dict):
                raise ManifestError(f"{path}: line {lineno}: not a JSON object ({type(rec).__name__})")
            for key in ("id", "image", "text", "label"):
                if key not in rec:
                    raise ManifestError(f"{path}: line {lineno}: missing key {key!r}")
            label = rec["label"]
            if type(label) is not int or label not in (0, 1):  # bool is an int subclass
                raise ManifestError(f"{path}: line {lineno}: label must be 0 or 1, got {label!r}")
            samples.append(Sample(id=str(rec["id"]), image_path=str(rec["image"]),
                                  text=str(rec["text"]), label=int(label)))
    _check_unique_ids(samples, str(path))
    return Manifest(samples=samples)


def save_manifest(manifest: Manifest, path) -> None:
    _check_unique_ids(manifest.samples, str(path))
    with open(path, "w", encoding="utf-8") as fh:
        for s in manifest.samples:
            rec = {"id": s.id, "image": s.image_path, "text": s.text, "label": s.label}
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def filter_by_length(manifest: Manifest) -> Manifest:
    """Keep samples whose token count t satisfies 5 < t < 150, order preserved."""
    kept = [s for s in manifest.samples if 5 < len(tokenize(s.text)) < 150]
    return Manifest(samples=kept)


def split_train_test(manifest: Manifest, seed: int,
                     train_frac: float = 0.8) -> tuple[Manifest, Manifest]:
    """Seeded shuffle, floor(train_frac * n) samples to train, rest to test."""
    if len(manifest) == 0:
        raise ValueError("cannot split an empty manifest")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(manifest.samples))
    n_train = int(math.floor(train_frac * len(manifest.samples)))
    train = [manifest.samples[i] for i in perm[:n_train]]
    test = [manifest.samples[i] for i in perm[n_train:]]
    return Manifest(samples=train), Manifest(samples=test)


# -- word vectors --------------------------------------------------------------


def load_embeddings(path, dim: int, fallback_seed: int = 0, dtype=np.float64) -> EmbeddingTable:
    """Parse the textual vector format: header "count dim", then
    "word v1 ... v_dim" per line. The header's dim must be ``dim`` and every
    value finite in ``dtype``: the dimension and dtype of the model that reads
    the vectors. The dim is checked before any row is read."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = utf8_lines(fh, path, EmbeddingFormatError)
        parts = next(lines, "").split()
        if len(parts) != 2:
            raise EmbeddingFormatError(f"{path}: line 1: header must be 'count dim'")
        try:
            count, file_dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise EmbeddingFormatError(f"{path}: line 1: header must be two integers") from None
        if count < 0 or file_dim < 1:
            raise EmbeddingFormatError(f"{path}: line 1: bad header values {count} {file_dim}")
        if file_dim != dim:
            raise EmbeddingFormatError(
                f"{path}: embedding dimension {file_dim} != model dimension {dim}")
        vectors: dict[str, np.ndarray] = {}
        rows = 0
        for lineno, line in enumerate(lines, start=2):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != dim + 1:
                raise EmbeddingFormatError(
                    f"{path}: line {lineno}: expected 1 word + {dim} values, got {len(fields)} fields")
            word = fields[0]
            try:
                vec = np.array([float(x) for x in fields[1:]], dtype=np.float64)
            except ValueError:
                raise EmbeddingFormatError(f"{path}: line {lineno}: non-numeric value") from None
            if not np.abs(vec).max() <= np.finfo(dtype).max:  # NaN fails it too
                raise EmbeddingFormatError(f"{path}: line {lineno}: a value of {word!r} is "
                                           f"not a finite {np.dtype(dtype)}")
            vectors[word] = vec
            rows += 1
        if rows != count:
            raise EmbeddingFormatError(f"{path}: header promises {count} rows, found {rows}")
    return EmbeddingTable(dim=dim, vectors=vectors, fallback_seed=fallback_seed)


# -- PPM images ----------------------------------------------------------------


def _read_ppm_token(data: bytes, pos: int, path) -> tuple[bytes, int]:
    # skip whitespace and '#' comments between header fields
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise PpmFormatError(f"{path}: truncated header")
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def load_ppm(path) -> np.ndarray:
    """Decode a binary PPM (P6, maxval 255) into (H, W, 3) uint8 pixels."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _read_ppm_token(data, 0, path)
    if magic != b"P6":
        raise PpmFormatError(f"{path}: unsupported format {magic!r}, only binary P6 is handled")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _read_ppm_token(data, pos, path)
        try:
            fields.append(int(tok))
        except ValueError:
            raise PpmFormatError(f"{path}: non-numeric {name} {tok!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PpmFormatError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise PpmFormatError(f"{path}: unsupported maxval {maxval}, expected 255")
    pos += 1  # single whitespace byte separates header from payload
    need = 3 * width * height
    payload = data[pos:pos + need]
    if len(payload) < need:
        raise PpmFormatError(f"{path}: truncated payload, expected {need} bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3).copy()


def save_ppm(path, pixels: np.ndarray) -> None:
    arr = np.asarray(pixels)
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError(f"save_ppm needs (H, W, 3) uint8 pixels, got {arr.shape} {arr.dtype}")
    h, w, _ = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


# -- checkpoints ----------------------------------------------------------------

CHECKPOINT_MAGIC = b"DFSN1"
CHECKPOINT_VERSION = 2
# magic, format version, config block length; the config block follows
CHECKPOINT_HEADER = struct.Struct("<5sHI")


def _checkpoint_chunks(params: FusionModelParams):
    """The checkpoint's bytes before the CRC: the header, then each tensor's
    little-endian float32 payload in ``named_tensors()`` order, which is not
    copied when the tensor already holds contiguous float32 values."""
    config_json = json.dumps(config_to_dict(params.config),
                             sort_keys=True, separators=(",", ":")).encode("utf-8")
    yield (CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(config_json))
           + config_json)
    for tensor in params.tensors():
        yield memoryview(np.ascontiguousarray(tensor.values, "<f4")).cast("B")


def save_checkpoint(params: FusionModelParams, path) -> None:
    """Write a versioned binary checkpoint (f32 payloads, CRC32 at the end).

    The bytes stream to a temporary file, with the CRC updated as they go,
    and the file is synced to disk before an atomic rename, so a crash
    leaves either the old file or the new one; a failed write removes the
    temporary file and raises an ``OSError`` naming ``path``. Round trips are
    bit-exact for float32 parameter tensors; float64 tensors are stored at
    float32 precision.
    """
    tmp = str(path) + ".tmp"
    crc = 0
    try:
        with open(tmp, "wb") as fh:
            for chunk in _checkpoint_chunks(params):
                crc = zlib.crc32(chunk, crc)
                fh.write(chunk)
            fh.write(struct.pack("<I", crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def load_checkpoint(path) -> FusionModelParams:
    """Read a checkpoint in one pass, in file order, validating magic, version,
    the config block, that the payload holds exactly the float32 values of the
    tensors that config lays out, the CRC over every byte, and then that each
    tensor is finite. The file is never held whole: each tensor's values are
    read straight into the model (a float64 model's through a float32 staging
    array), and the CRC accumulates over them as they land."""
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < CHECKPOINT_HEADER.size + 4:
            raise CheckpointFormatError(f"{path}: file too short to be a checkpoint")
        head = fh.read(CHECKPOINT_HEADER.size)
        magic, version, config_len = CHECKPOINT_HEADER.unpack(head)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointFormatError(f"{path}: bad magic {magic!r}")
        # the CRC comes last, so each field is checked as it arrives; a header
        # corrupted under a stale CRC fails the first check its field breaks
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(
                f"{path}: version {version} unsupported (expected {CHECKPOINT_VERSION})")
        payload_start, end = CHECKPOINT_HEADER.size + config_len, size - 4
        if payload_start > end:
            raise CheckpointFormatError(f"{path}: the {config_len}-byte config block overruns the file")
        block = fh.read(config_len)
        crc = zlib.crc32(block, zlib.crc32(head))
        try:
            config = config_from_dict(json.loads(block.decode("utf-8")))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise CheckpointFormatError(f"{path}: bad config block ({exc})") from None
        # a few config bytes can imply any number of parameters: check the
        # payload holds exactly their 4-byte values before allocating the model
        implied = sum(math.prod(shape) for shape in config.param_shapes())
        if 4 * implied != end - payload_start:
            raise CheckpointFormatError(
                f"{path}: the config's tensors need {4 * implied} payload bytes "
                f"({implied} float32 values), the file holds {end - payload_start}")
        params, non_finite = empty_model(config), None
        for name, tensor in params.named_tensors().items():
            chunk = tensor.values if tensor.dtype == "<f4" else np.empty(tensor.shape, "<f4")
            view = memoryview(chunk).cast("B")
            fh.readinto(view)
            crc = zlib.crc32(view, crc)
            # min and max propagate NaN, so no mask of the tensor's size is made
            if non_finite is None and not np.isfinite([chunk.min(), chunk.max()]).all():
                non_finite = name
            tensor.values[...] = chunk  # a no-op unless chunk is a float64 model's staging array
        if struct.pack("<I", crc) != fh.read(4):
            raise CheckpointFormatError(f"{path}: checksum mismatch, file is corrupt")
        if non_finite is not None:
            raise CheckpointFormatError(f"{path}: tensor {non_finite!r} holds non-finite values")
    return params


# -- synthetic cross-modal dataset ---------------------------------------------

POSITIVE_WORDS = ("wonderful", "amazing", "beautiful", "happy", "lovely",
                  "delightful", "joyful", "bright")
NEGATIVE_WORDS = ("terrible", "awful", "sad", "gloomy", "horrible",
                  "miserable", "dreadful", "bleak")
NEUTRAL_WORDS = ("the", "a", "photo", "picture", "street", "city", "day",
                 "view", "near", "along", "morning", "shows", "with", "and",
                 "some", "frame", "taken", "building")

REGIMES = ("a", "b", "c", "d")
SYNTH_IMAGE_SIDE = 32
MIN_TOKENS = 6
MAX_TOKENS = 149


def _warm_image(rng: np.random.Generator) -> np.ndarray:
    base = np.array([rng.uniform(170, 240), rng.uniform(120, 190), rng.uniform(40, 110)])
    return _textured(base, rng)


def _cold_image(rng: np.random.Generator) -> np.ndarray:
    base = np.array([rng.uniform(10, 80), rng.uniform(25, 100), rng.uniform(90, 170)])
    return _textured(base, rng)


def _textured(base: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    s = SYNTH_IMAGE_SIDE
    img = np.broadcast_to(base, (s, s, 3)).copy()
    img += rng.normal(0.0, 18.0, size=(s, s, 3))
    # one soft disk of shifted shade for some spatial structure
    cy, cx = rng.uniform(4, s - 4, size=2)
    radius = rng.uniform(3, 8)
    yy, xx = np.mgrid[0:s, 0:s]
    disk = ((yy - cy) ** 2 + (xx - cx) ** 2) < radius ** 2
    img[disk] += rng.uniform(-30, 30, size=3)
    return np.clip(img, 0, 255).astype(np.uint8)


def _gray_image(rng: np.random.Generator) -> np.ndarray:
    s = SYNTH_IMAGE_SIDE
    v = np.clip(rng.normal(128.0, 20.0, size=(s, s)), 0, 255)
    return np.repeat(v[:, :, None], 3, axis=2).astype(np.uint8)


def _neutral_text(rng: np.random.Generator) -> list[str]:
    length = int(rng.integers(MIN_TOKENS, MAX_TOKENS + 1))
    idx = rng.integers(0, len(NEUTRAL_WORDS), size=length)
    return [NEUTRAL_WORDS[i] for i in idx]


def _polar_text(rng: np.random.Generator, positive: bool) -> list[str]:
    tokens = _neutral_text(rng)
    lexicon = POSITIVE_WORDS if positive else NEGATIVE_WORDS
    n_marks = max(2, len(tokens) // 10)
    positions = rng.choice(len(tokens), size=min(n_marks, len(tokens)), replace=False)
    for p in positions:
        tokens[p] = lexicon[int(rng.integers(0, len(lexicon)))]
    return tokens


def _regime_counts(n: int, mix: Sequence[float]) -> list[int]:
    if len(mix) != 4:
        raise ValueError(f"regime mix needs 4 proportions, got {len(mix)}")
    if not all(math.isfinite(p) for p in mix):
        raise ValueError(f"regime proportions must be finite, got {list(mix)}")
    if any(p < 0 for p in mix):
        raise ValueError("regime proportions must be nonnegative")
    if abs(sum(mix) - 1.0) > 1e-9:
        raise ValueError(f"regime proportions must sum to 1, got {sum(mix)}")
    base = [int(math.floor(p * n)) for p in mix]
    remainders = [(p * n - b, -i) for i, (p, b) in enumerate(zip(mix, base))]
    for _, neg_i in sorted(remainders, reverse=True)[: n - sum(base)]:
        base[-neg_i] += 1
    return base


def gen_synthetic(n: int, regime_mix: Sequence[float] = (0.25, 0.25, 0.25, 0.25),
                  seed: int = 0, out_dir=".") -> Manifest:
    """Emit n samples across the four cross-modal regimes and write their images.

    Regimes (encoded as the first character of each sample id):
      a: image and text both informative, positive label;
      b: image and text both informative, negative label;
      c: image informative, text neutral (labels balanced by alternation);
      d: text informative, image neutral (labels balanced by alternation).
    Positive images are bright and warm-dominant, negative ones dark and
    cold-dominant, neutral ones gray noise. Image files land under
    ``out_dir/images/``; manifest paths are relative to ``out_dir``.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    counts = _regime_counts(n, regime_mix)
    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    samples = []
    serial = 0
    for regime, count in zip(REGIMES, counts):
        for j in range(count):
            if regime == "a":
                label = 1
            elif regime == "b":
                label = 0
            else:
                label = 1 if j % 2 == 0 else 0
            if regime == "d":
                img = _gray_image(rng)
            elif label == 1:
                img = _warm_image(rng)
            else:
                img = _cold_image(rng)
            if regime == "c":
                tokens = _neutral_text(rng)
            else:
                tokens = _polar_text(rng, positive=(label == 1))
            sample_id = f"{regime}{serial:05d}"
            rel_path = f"images/{sample_id}.ppm"
            save_ppm(out_dir / rel_path, img)
            samples.append(Sample(id=sample_id, image_path=rel_path,
                                  text=" ".join(tokens), label=label))
            serial += 1
    return Manifest(samples=samples)


# -- materialization -----------------------------------------------------------


def materialize(manifest: Manifest, base_dir, config: FusionConfig,
                table: Optional[EmbeddingTable]) -> list[ModelSample]:
    """Decode and preprocess every sample once, for training or evaluation.

    Image paths resolve relative to ``base_dir`` (usually the manifest's
    directory) unless absolute.
    """
    base = Path(base_dir)
    out = []
    for s in manifest.samples:
        image = None
        if config.image is not None:
            pixels = load_ppm(base / s.image_path)
            image = preprocess_image(pixels, config.image.input_side, dtype=config.np_dtype)
        tokens = tokenize(s.text) if config.text is not None else None
        out.append(ModelSample(image=image, tokens=tokens, label=s.label))
    return out
