"""Byte-mutation fuzz for the four file loaders and the command line.

Each test starts from a valid file written by the package's own writer (or,
for word vectors, a two-word file), applies byte flips, truncations and
insertions, and asserts that the loader either returns or raises its own
format error: nothing else may escape. The command-line tests feed every kind
of file the CLI reads, mutated, through ``cli.main``, which must exit 0, or
exit 1 with an ``error:`` line that names the file (for a manifest, the file or
an image path one of its lines points to).
"""

import contextlib
import io
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfsn.cli import main
from dfsn.data import (CheckpointFormatError, EmbeddingFormatError, Manifest, ManifestError,
                       PpmFormatError, Sample, load_checkpoint, load_embeddings,
                       load_manifest, load_ppm, save_checkpoint, save_manifest, save_ppm)
from dfsn.model import FusionConfig, fusion_preset, init_model
from dfsn.text import TextConfig


def mutations(size: int, header: int):
    """Lists of edits on a ``size``-byte file; half the positions fall in its
    first ``header`` bytes, where the format's structure lives."""
    pos = st.one_of(st.integers(0, min(header, size)), st.integers(0, size))
    edit = st.one_of(
        st.tuples(st.just("flip"), pos, st.integers(1, 255)),
        st.tuples(st.just("truncate"), pos, st.none()),
        st.tuples(st.just("insert"), pos, st.binary(min_size=1, max_size=8)),
    )
    return st.lists(edit, min_size=1, max_size=3)


def mutate(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for kind, pos, arg in edits:
        pos = min(pos, len(out))
        if kind == "flip" and pos < len(out):
            out[pos] ^= arg
        elif kind == "truncate":
            del out[pos:]
        elif kind == "insert":
            out[pos:pos] = arg
    return bytes(out)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One valid file per format, plus a scratch path for the mutated copy."""
    d = tmp_path_factory.mktemp("loader-fuzz")
    save_manifest(Manifest([Sample("a0", "images/a0.ppm", "a wonderful bright morning", 1),
                            Sample("b1", "images/b1.ppm", "a gray and dull day", 0)]),
                  d / "manifest.jsonl")
    (d / "vectors.txt").write_text("2 3\nhello 0.1 -0.2 3e-1\nworld 1 2 3\n", encoding="utf-8")
    save_ppm(d / "image.ppm", np.arange(48, dtype=np.uint8).reshape(4, 4, 3))
    # two samples that pass the 5 < words < 150 filter, for train and eval
    (d / "images").mkdir()
    for name in ("a0", "b1"):
        save_ppm(d / "images" / f"{name}.ppm", np.full((4, 4, 3), 99, dtype=np.uint8))
    save_manifest(Manifest([Sample("a0", "images/a0.ppm", "a wonderful bright morning in town", 1),
                            Sample("b1", "images/b1.ppm", "a gray and dull day again", 0)]),
                  d / "train.jsonl")
    save_checkpoint(init_model(fusion_preset("tiny"), seed=3), d / "tiny.dfsn")
    text_only = FusionConfig(image=None, hidden1=4, hidden2=3,
                             text=TextConfig(dim=3, max_len=8, widths=(2, 3),
                                             filters_per_width=2))
    save_checkpoint(init_model(text_only, seed=4), d / "text.dfsn")
    (d / "run.cfg").write_text("# predict settings\nseed = 3\nmix = '0.4,0.4,0.1,0.1'\n"
                               "lr = 1e-3\n", encoding="utf-8")
    (d / "history.csv").write_text("step,1,0.0001,0.6931\nstep,2,0.0001,0.6810\n"
                                   "epoch,1,train,0.500,1.000,0.667,0.500\n", encoding="utf-8")
    return d


def assert_loads_or_format_error(files, loader, error, blob):
    path = files / "mutated"
    path.write_bytes(blob)
    try:
        loader(path)
    except error:
        pass


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_manifest(files, data):
    blob = (files / "manifest.jsonl").read_bytes()
    edits = data.draw(mutations(len(blob), 64))
    assert_loads_or_format_error(files, load_manifest, ManifestError, mutate(blob, edits))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_embeddings(files, data):
    blob = (files / "vectors.txt").read_bytes()
    edits = data.draw(mutations(len(blob), 8))
    assert_loads_or_format_error(files, lambda path: load_embeddings(path, 3),
                                 EmbeddingFormatError, mutate(blob, edits))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ppm(files, data):
    blob = (files / "image.ppm").read_bytes()
    edits = data.draw(mutations(len(blob), 11))
    assert_loads_or_format_error(files, load_ppm, PpmFormatError, mutate(blob, edits))


# fields are checked as they are read and the CRC last: without a recomputed CRC
# a header edit ends at the first field check it fails (version, config block or
# payload size), any other edit at the checksum; with it the edit reaches the
# config block, the payload size check and the payload
@pytest.mark.parametrize("recompute_crc", [False, True], ids=["stale-crc", "fresh-crc"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_checkpoint(files, recompute_crc, data):
    blob = (files / "tiny.dfsn").read_bytes()
    body = blob[:-4] if recompute_crc else blob
    # the config block and the payload's first 64 bytes
    header = 11 + int.from_bytes(blob[7:11], "little") + 64
    mutated = mutate(body, data.draw(mutations(len(body), header)))
    if recompute_crc:
        mutated += struct.pack("<I", zlib.crc32(mutated))
    assert_loads_or_format_error(files, load_checkpoint, CheckpointFormatError, mutated)


def assert_main_exits_cleanly(files, name, blob, argv, also_named=lambda path: []):
    """Run ``cli.main`` on ``argv`` with ``blob`` as the file ``name``: it must
    exit 0, or exit 1 with one ``error:`` message that names that file or one
    of the paths ``also_named`` gives for it."""
    path = files / name
    path.write_bytes(blob)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([arg.format(path=path, dir=files) for arg in argv])
    if code != 0:
        assert code == 1
        assert stderr.getvalue().startswith("error: ")
        assert any(str(named) in stderr.getvalue() for named in [path, *also_named(path)])


def image_paths(path):
    """The image paths a manifest's lines point to, or none if it does not load."""
    try:
        return [path.parent / s.image_path for s in load_manifest(path)]
    except ManifestError:
        return []


PREDICT = ["predict", "--checkpoint", "{dir}/text.dfsn", "--text", "hello brave new world"]
TRAIN = ["train", "--manifest", "{path}", "--out", "{dir}/run", "--preset", "tiny",
         "--epochs", "1", "--batch-size", "2"]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_main_config(files, data):
    blob = (files / "run.cfg").read_bytes()
    edits = data.draw(mutations(len(blob), 32))
    assert_main_exits_cleanly(files, "mutated.cfg", mutate(blob, edits),
                              PREDICT + ["--config", "{path}"])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_main_history(files, data):
    blob = (files / "history.csv").read_bytes()
    edits = data.draw(mutations(len(blob), 32))
    assert_main_exits_cleanly(files, "mutated.csv", mutate(blob, edits),
                              ["report", "--history", "{path}"])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_main_embeddings(files, data):
    blob = (files / "vectors.txt").read_bytes()
    edits = data.draw(mutations(len(blob), 8))
    assert_main_exits_cleanly(files, "mutated.txt", mutate(blob, edits),
                              PREDICT + ["--embeddings", "{path}"])


@pytest.mark.parametrize("command", ["eval", "train"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_main_manifest(files, command, data):
    blob = (files / "train.jsonl").read_bytes()
    edits = data.draw(mutations(len(blob), 64))
    argv = {"eval": ["eval", "--checkpoint", "{dir}/tiny.dfsn", "--manifest", "{path}"],
            "train": TRAIN}[command]
    assert_main_exits_cleanly(files, "mutated.jsonl", mutate(blob, edits), argv,
                              also_named=image_paths)


def value_edits(rec):
    """``rec`` with its text and label values redrawn. The line stays valid JSON
    with every key, so unlike a byte edit it passes the UTF-8, JSON and key
    checks and meets the label check, the length filter and training."""
    words = st.lists(st.text(min_size=1, max_size=12), min_size=6, max_size=160).map(" ".join)
    text = st.one_of(st.just(rec["text"]), st.text(), words)
    bad_label = st.one_of(st.integers(), st.sampled_from([True, 0.0, "1", None, [1]]))
    label = st.one_of(st.just(rec["label"]), st.sampled_from([0, 1]), bad_label)
    return st.builds(lambda t, lab: {**rec, "text": t, "label": lab}, text, label)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_main_manifest_values(files, data):
    recs = [json.loads(line) for line in (files / "train.jsonl").read_text("utf-8").splitlines()]
    blob = "".join(json.dumps(data.draw(value_edits(rec)), ensure_ascii=False, sort_keys=True)
                   + "\n" for rec in recs)
    assert_main_exits_cleanly(files, "mutated.jsonl", blob.encode("utf-8"), TRAIN,
                              also_named=image_paths)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_main_ppm(files, data):
    blob = (files / "image.ppm").read_bytes()
    edits = data.draw(mutations(len(blob), 11))
    assert_main_exits_cleanly(files, "mutated.ppm", mutate(blob, edits),
                              ["predict", "--checkpoint", "{dir}/tiny.dfsn", "--image", "{path}",
                               "--text", "hello brave new world"])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_main_checkpoint(files, data):
    body = (files / "tiny.dfsn").read_bytes()[:-4]
    header = 11 + int.from_bytes(body[7:11], "little") + 64
    mutated = mutate(body, data.draw(mutations(len(body), header)))
    mutated += struct.pack("<I", zlib.crc32(mutated))
    assert_main_exits_cleanly(files, "mutated.dfsn", mutated,
                              ["predict", "--checkpoint", "{path}", "--image", "{dir}/image.ppm",
                               "--text", "hello brave new world"])
