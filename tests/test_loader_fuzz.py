"""Byte-mutation fuzz for the four file loaders and the command line.

Each test starts from a valid file written by the package's own writer (or,
for word vectors, a two-word file), applies byte flips, truncations and
insertions, and asserts that the loader either returns or raises its own
format error: nothing else may escape. The command-line tests feed mutated
``--config``, ``--history`` and ``--embeddings`` files through ``cli.main``,
which must exit 0, or exit 1 with an ``error:`` line that names the file.
"""

import contextlib
import io
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
    assert_loads_or_format_error(files, load_embeddings, EmbeddingFormatError,
                                 mutate(blob, edits))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ppm(files, data):
    blob = (files / "image.ppm").read_bytes()
    edits = data.draw(mutations(len(blob), 11))
    assert_loads_or_format_error(files, load_ppm, PpmFormatError, mutate(blob, edits))


# without a recomputed CRC nearly every edit must end at the checksum; with it
# the edit reaches the config block, the tensor table and the payloads
@pytest.mark.parametrize("recompute_crc", [False, True], ids=["stale-crc", "fresh-crc"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_checkpoint(files, recompute_crc, data):
    blob = (files / "tiny.dfsn").read_bytes()
    body = blob[:-4] if recompute_crc else blob
    header = 11 + int.from_bytes(blob[7:11], "little") + 64  # config block and first record
    mutated = mutate(body, data.draw(mutations(len(body), header)))
    if recompute_crc:
        mutated += struct.pack("<I", zlib.crc32(mutated))
    assert_loads_or_format_error(files, load_checkpoint, CheckpointFormatError, mutated)


def assert_main_exits_cleanly(files, name, blob, argv):
    """Run ``cli.main`` on ``argv`` with ``blob`` as the file ``name``: it must
    exit 0, or exit 1 with one ``error:`` message that names that file."""
    path = files / name
    path.write_bytes(blob)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([arg.format(path=path, dir=files) for arg in argv])
    if code != 0:
        assert code == 1
        assert stderr.getvalue().startswith("error: ")
        assert str(path) in stderr.getvalue()


PREDICT = ["predict", "--checkpoint", "{dir}/text.dfsn", "--text", "hello brave new world"]


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
