"""File formats and dataset machinery: manifests, word vectors, PPM,
checkpoints, filtering, splitting, and the synthetic generator."""

import dataclasses
import errno
import io
import json
import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dfsn import data as data_module
from dfsn.data import (CheckpointFormatError, EmbeddingFormatError, Manifest,
                       ManifestError, PpmFormatError, Sample, filter_by_length,
                       gen_synthetic, load_checkpoint, load_embeddings,
                       load_manifest, load_ppm, materialize, save_checkpoint,
                       save_manifest, save_ppm, split_train_test)
from dfsn.image import preprocess_image
from dfsn.model import MODALITIES, config_to_dict, empty_model, fusion_preset, init_model
from dfsn.text import EmbeddingTable, tokenize


class TestEmbeddingsLoader:
    def write(self, tmp_path, text):
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_minimal_file(self, tmp_path):
        path = self.write(tmp_path, "2 3\nhello 0.1 0.2 0.3\nworld 1 2 3\n")
        table = load_embeddings(path, 3)
        assert table.dim == 3
        assert table.row_ids(["hello", "world"]) == [1, 2]
        assert table.matrix.tolist() == [[0.0] * 3, [0.1, 0.2, 0.3], [1.0, 2.0, 3.0]]

    def test_parse_fidelity(self, tmp_path):
        path = self.write(tmp_path, "1 4\nword 0.25 -1.5 3e-2 7\n")
        table = load_embeddings(path, 4)
        row = table.row_ids(["word"])[0]
        assert table.matrix[row].tolist() == [0.25, -1.5, 0.03, 7.0]

    def test_short_line_names_line_number(self, tmp_path):
        path = self.write(tmp_path, "2 3\nok 1 2 3\nbad 1 2\n")
        with pytest.raises(EmbeddingFormatError, match="line 3"):
            load_embeddings(path, 3)

    def test_non_numeric_value(self, tmp_path):
        path = self.write(tmp_path, "1 2\nword 1.0 oops\n")
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_embeddings(path, 2)

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "3\nword 1 2 3\n")
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_embeddings(path, 3)

    # a malformed row after the header shows that no row was read
    @pytest.mark.parametrize("header", ["1 2", "0 1000000000000"])
    def test_dim_unlike_the_model_refused_before_any_row(self, header, tmp_path):
        path = self.write(tmp_path, f"{header}\nword 1 oops\n")
        with pytest.raises(EmbeddingFormatError,
                           match=f"vectors.txt: embedding dimension {header.split()[1]} "
                                 f"!= model dimension 3$"):
            load_embeddings(path, 3)

    def test_count_mismatch(self, tmp_path):
        path = self.write(tmp_path, "3 2\na 1 2\nb 3 4\n")
        with pytest.raises(EmbeddingFormatError, match="promises 3"):
            load_embeddings(path, 2)

    # -1e300 is finite in float64 but not in float32
    @pytest.mark.parametrize("value,dtype", [("nan", np.float64), ("-inf", np.float64),
                                             ("-1e300", np.float32)])
    def test_values_must_be_finite_in_the_model_dtype(self, value, dtype, tmp_path):
        path = self.write(tmp_path, f"2 2\na 1 2\nbig {value} 0\n")
        with pytest.raises(EmbeddingFormatError,
                           match=f"line 3: a value of 'big' is not a finite {np.dtype(dtype)}$"):
            load_embeddings(path, 2, dtype=dtype)
        assert load_embeddings(self.write(tmp_path, "1 2\nbig -1e300 0\n"), 2).dim == 2

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_bytes(b"1 2\n\xff\xfe 1 2\n")
        with pytest.raises(EmbeddingFormatError, match="vectors.txt: not UTF-8"):
            load_embeddings(path, 2)

    def test_oov_fallback_attached(self, tmp_path):
        path = self.write(tmp_path, "1 2\nknown 1 2\n")
        table = load_embeddings(path, 2, fallback_seed=3)
        row = table.row_ids(["unknown"])[0]
        vec = table.matrix[row]
        assert vec.shape == (2,)
        assert np.all(np.abs(vec) <= 0.25)


class TestPpm:
    def test_minimal_red_pixel(self, tmp_path):
        path = tmp_path / "one.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\xff\x00\x00")
        pixels = load_ppm(path)
        assert pixels.shape == (1, 1, 3)
        assert pixels[0, 0].tolist() == [255, 0, 0]

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n# another\n255\n" + bytes(6))
        assert load_ppm(path).shape == (1, 2, 3)

    def test_ascii_variant_rejected(self, tmp_path):
        path = tmp_path / "p3.ppm"
        path.write_bytes(b"P3\n1 1\n255\n255 0 0\n")
        with pytest.raises(PpmFormatError, match="P3"):
            load_ppm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(7))
        with pytest.raises(PpmFormatError, match="truncated"):
            load_ppm(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "wide.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(PpmFormatError, match="maxval"):
            load_ppm(path)

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, (5, 7, 3)).astype(np.uint8)
        path = tmp_path / "rt.ppm"
        save_ppm(path, pixels)
        assert np.array_equal(load_ppm(path), pixels)


def make_manifest(word_counts):
    samples = [Sample(id=f"s{i}", image_path=f"images/s{i}.ppm",
                      text=" ".join(["word"] * n), label=i % 2)
               for i, n in enumerate(word_counts)]
    return Manifest(samples=samples)


class TestFilterByLength:
    def test_six_words_kept(self):
        assert len(filter_by_length(make_manifest([6]))) == 1

    def test_five_words_dropped(self):
        assert len(filter_by_length(make_manifest([5]))) == 0

    def test_149_kept_150_dropped(self):
        kept = filter_by_length(make_manifest([149, 150]))
        assert [len(tokenize(s.text)) for s in kept.samples] == [149]

    def test_order_preserved(self):
        m = filter_by_length(make_manifest([10, 3, 20, 200, 30]))
        assert [s.id for s in m.samples] == ["s0", "s2", "s4"]

    def test_idempotent(self):
        m = make_manifest([2, 6, 10, 150, 80])
        once = filter_by_length(m)
        twice = filter_by_length(once)
        assert [s.id for s in once.samples] == [s.id for s in twice.samples]

    def test_word_count_uses_tokenizer(self):
        # punctuation-only chunks are not words
        m = Manifest(samples=[Sample(id="x", image_path="x.ppm",
                                     text="one two three four five !!", label=0)])
        assert len(filter_by_length(m)) == 0


class TestSplit:
    def test_ten_gives_eight_two(self):
        train, test = split_train_test(make_manifest([10] * 10), seed=0)
        assert (len(train), len(test)) == (8, 2)

    def test_eleven_gives_eight_three(self):
        train, test = split_train_test(make_manifest([10] * 11), seed=0)
        assert (len(train), len(test)) == (8, 3)

    def test_same_seed_same_split(self):
        m = make_manifest([10] * 25)
        a = split_train_test(m, seed=5)
        b = split_train_test(m, seed=5)
        assert [s.id for s in a[0].samples] == [s.id for s in b[0].samples]
        assert [s.id for s in a[1].samples] == [s.id for s in b[1].samples]

    def test_split_sizes(self):
        train, test = split_train_test(make_manifest([10] * 5), seed=1)
        assert (len(train), len(test)) == (4, 1)

    @given(st.integers(1, 60), st.integers(0, 10))
    def test_partition_property(self, n, seed):
        m = make_manifest([10] * n)
        train, test = split_train_test(m, seed=seed)
        train_ids = {s.id for s in train.samples}
        test_ids = {s.id for s in test.samples}
        assert train_ids | test_ids == {s.id for s in m.samples}
        assert not (train_ids & test_ids)
        assert len(train) == int(np.floor(0.8 * n))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_train_test(Manifest(), seed=0)


class TestManifestIO:
    def test_roundtrip(self, tmp_path):
        m = make_manifest([6, 8, 10])
        path = tmp_path / "m.jsonl"
        save_manifest(m, path)
        loaded = load_manifest(path)
        assert [(s.id, s.image_path, s.text, s.label) for s in loaded.samples] == \
            [(s.id, s.image_path, s.text, s.label) for s in m.samples]

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "image": "x", "text": "t", "label": 0}\nnot json\n')
        with pytest.raises(ManifestError, match="line 2"):
            load_manifest(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "image": "x", "label": 0}\n')
        with pytest.raises(ManifestError, match="text"):
            load_manifest(path)

    def test_bad_label(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "image": "x", "text": "t", "label": 3}\n')
        with pytest.raises(ManifestError, match="label"):
            load_manifest(path)

    def test_line_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "image": "x", "text": "t", "label": 0}\n5\n')
        with pytest.raises(ManifestError, match="line 2: not a JSON object"):
            load_manifest(path)

    @pytest.mark.parametrize("label", ["true", "false", "1.0", '"1"'])
    def test_label_must_be_integer_zero_or_one(self, tmp_path, label):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "image": "x", "text": "t", "label": %s}\n' % label)
        with pytest.raises(ManifestError, match="label must be 0 or 1"):
            load_manifest(path)

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(b'{"id": "a", "image": "x", "text": "caf\xff", "label": 0}\n')
        with pytest.raises(ManifestError, match="m.jsonl: not UTF-8"):
            load_manifest(path)

    # json.loads raises a bare ValueError for the first and RecursionError for the second
    @pytest.mark.parametrize("value", ["1" * 5000, "[" * 100000], ids=["long-int", "deep"])
    def test_json_the_decoder_refuses(self, tmp_path, value):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "image": "x", "text": "t", "label": %s}\n' % value)
        with pytest.raises(ManifestError, match="line 1: invalid JSON"):
            load_manifest(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        record = '{"id": "dup", "image": "x", "text": "t", "label": 0}\n'
        path.write_text(record + record)
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(path)


def with_crc(body) -> bytes:
    body = bytes(body)
    return body + struct.pack("<I", zlib.crc32(body))


def config_block(blob) -> dict:
    (config_len,) = struct.unpack_from("<I", blob, 7)
    return json.loads(blob[11:11 + config_len])


def with_config(blob, config) -> bytes:
    """``blob`` with its config block replaced by ``config`` and the CRC recomputed."""
    (config_len,) = struct.unpack_from("<I", blob, 7)
    block = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return with_crc(blob[:7] + struct.pack("<I", len(block)) + block + blob[11 + config_len:-4])


def payload_offset(blob, params, name) -> int:
    """Byte offset of tensor ``name``'s first value in checkpoint ``blob``."""
    tensors = params.named_tensors()
    before = sum(t.numel for t in list(tensors.values())[:list(tensors).index(name)])
    return 11 + struct.unpack_from("<I", blob, 7)[0] + 4 * before


def whole_blob_checkpoint(params) -> bytes:
    """A format-2 checkpoint laid out in one buffer with ``struct``, apart
    from the package's writer: magic, version, config block, every tensor's
    float32 payload in ``named_tensors()`` order, then the CRC."""
    config = json.dumps(config_to_dict(params.config), sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    body = b"DFSN1" + struct.pack("<HI", 2, len(config)) + config
    for tensor in params.tensors():
        body += struct.pack(f"<{tensor.numel}f", *tensor.values.reshape(-1).tolist())
    return with_crc(body)


def version_1_checkpoint(params) -> bytes:
    """The same model in format 1: the config block also held ``modality``, and
    a tensor count, then each tensor's name, rank and extents, led its payload."""
    config = json.dumps({**config_to_dict(params.config), "modality": params.config.modality},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    tensors = params.named_tensors()
    body = b"DFSN1" + struct.pack("<HI", 1, len(config)) + config + struct.pack("<I", len(tensors))
    for name, tensor in tensors.items():
        body += struct.pack(f"<H{len(name)}sB{tensor.ndim}I", len(name), name.encode("utf-8"),
                            tensor.ndim, *tensor.shape)
        body += struct.pack(f"<{tensor.numel}f", *tensor.values.reshape(-1).tolist())
    return with_crc(body)


def peak_traced_bytes(fn) -> int:
    """The peak of Python and numpy allocations while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCheckpoint:
    def make_params(self, seed=0, preset="tiny"):
        return init_model(fusion_preset(preset), seed=seed)

    def test_roundtrip_bit_exact(self, tmp_path):
        params = self.make_params(seed=7)
        path = tmp_path / "model.dfsn"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        for name, tensor in params.named_tensors().items():
            other = loaded.named_tensors()[name]
            assert tensor.values.dtype == other.values.dtype
            assert np.array_equal(tensor.values, other.values), name

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("modality", MODALITIES)
    def test_roundtrip_per_modality_and_dtype(self, tmp_path, modality, dtype):
        params = init_model(fusion_preset("tiny", modality=modality, dtype=dtype), seed=21)
        path = tmp_path / "model.dfsn"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        assert list(loaded.named_tensors()) == list(params.named_tensors())
        for name, tensor in params.named_tensors().items():
            other = loaded.named_tensors()[name].values
            # float64 values are stored at float32 precision
            expected = tensor.values.astype(np.float32).astype(tensor.values.dtype)
            assert other.dtype == tensor.values.dtype
            assert other.tobytes() == expected.tobytes(), name

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        params = self.make_params(seed=8)
        path = tmp_path / "model.dfsn"
        save_checkpoint(params, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="checksum"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.dfsn"
        save_checkpoint(self.make_params(), path)
        blob = bytearray(path.read_bytes())
        blob[0:5] = b"NOPE1"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_version_1_refused(self, tmp_path):
        path = tmp_path / "model.dfsn"
        path.write_bytes(version_1_checkpoint(self.make_params(seed=22)))
        with pytest.raises(CheckpointFormatError, match=r"version 1 unsupported \(expected 2\)"):
            load_checkpoint(path)

    def test_config_echo_detects_preset_mismatch(self, tmp_path):
        # the config block claims a wider first layer than the payload holds
        path = tmp_path / "model.dfsn"
        save_checkpoint(self.make_params(seed=9), path)
        blob = path.read_bytes()
        config = config_block(blob)
        config["image"]["layers"][0]["out_channels"] = 99
        path.write_bytes(with_config(blob, config))
        with pytest.raises(CheckpointFormatError, match="the config's tensors need"):
            load_checkpoint(path)

    def test_missing_tensor(self, tmp_path):
        # drop the final tensor's payload (fc3.bias: 2 float32 values)
        path = tmp_path / "model.dfsn"
        save_checkpoint(self.make_params(seed=10), path)
        path.write_bytes(with_crc(path.read_bytes()[:-4 - 2 * 4]))
        with pytest.raises(CheckpointFormatError, match="the file holds"):
            load_checkpoint(path)

    def test_config_survives_roundtrip(self, tmp_path):
        params = self.make_params(seed=11)
        path = tmp_path / "model.dfsn"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config

    @pytest.mark.parametrize("modality,unused", [("text", "image"), ("image", "text")])
    def test_single_branch_config_block_holds_only_its_branch(self, tmp_path, modality,
                                                              unused):
        params = init_model(fusion_preset("tiny", modality=modality), seed=4)
        path = tmp_path / "model.dfsn"
        save_checkpoint(params, path)
        config = config_block(path.read_bytes())
        assert unused not in config
        assert set(config) == {modality, "hidden1", "hidden2", "dtype"}

    def test_config_without_a_branch_block(self, tmp_path):
        path = tmp_path / "model.dfsn"
        save_checkpoint(self.make_params(seed=12), path)
        blob = path.read_bytes()
        config = config_block(blob)
        del config["image"], config["text"]
        path.write_bytes(with_config(blob, config))
        with pytest.raises(CheckpointFormatError, match="bad config block"):
            load_checkpoint(path)

    # a config whose fc1 is (50, 20000) implies 4 MB of payload: a loader that
    # allocated the model before checking the payload's size would double the file
    @pytest.mark.parametrize("extra", [b"", b"\0" * 8], ids=["short", "long"])
    def test_payload_off_by_four_bytes_refused_before_allocating(self, tmp_path, extra):
        config = dataclasses.replace(fusion_preset("tiny"), hidden1=20000)
        path = tmp_path / "model.dfsn"
        save_checkpoint(empty_model(config), path)
        body = path.read_bytes()[:-4]
        path.write_bytes(with_crc(body[:-4] + extra))

        def load():
            with pytest.raises(CheckpointFormatError, match="the config's tensors need"):
                load_checkpoint(path)

        assert peak_traced_bytes(load) < path.stat().st_size + 2 ** 20

    def test_config_block_not_an_object(self, tmp_path):
        path = tmp_path / "model.dfsn"
        save_checkpoint(self.make_params(seed=15), path)
        blob = path.read_bytes()
        (config_len,) = struct.unpack_from("<I", blob, 7)
        body = blob[:7] + struct.pack("<I", 2) + b"[]" + blob[11 + config_len:-4]
        path.write_bytes(with_crc(body))
        with pytest.raises(CheckpointFormatError, match="bad config block"):
            load_checkpoint(path)

    def test_config_block_nested_too_deep(self, tmp_path):
        path = tmp_path / "model.dfsn"
        save_checkpoint(self.make_params(seed=15), path)
        blob = path.read_bytes()
        (config_len,) = struct.unpack_from("<I", blob, 7)
        block = b"[" * 100000
        body = blob[:7] + struct.pack("<I", len(block)) + block + blob[11 + config_len:-4]
        path.write_bytes(with_crc(body))
        with pytest.raises(CheckpointFormatError, match="bad config block"):
            load_checkpoint(path)

    def test_non_finite_payload_names_tensor(self, tmp_path):
        params = self.make_params(seed=16)
        path = tmp_path / "model.dfsn"
        save_checkpoint(params, path)
        body = bytearray(path.read_bytes()[:-4])
        first = payload_offset(body, params, "fc1.weight")
        body[first:first + 4] = struct.pack("<f", np.nan)
        path.write_bytes(with_crc(body))
        with pytest.raises(CheckpointFormatError, match="'fc1.weight' holds non-finite"):
            load_checkpoint(path)

    def test_crc_is_compared_before_the_finiteness_check(self, tmp_path):
        # a NaN under the stale CRC is corruption, not a model that diverged
        params = self.make_params(seed=25)
        path = tmp_path / "model.dfsn"
        save_checkpoint(params, path)
        blob = bytearray(path.read_bytes())
        first = payload_offset(blob, params, "fc1.weight")
        blob[first:first + 4] = struct.pack("<f", np.nan)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="checksum"):
            load_checkpoint(path)

    def test_load_reads_each_byte_once(self, tmp_path, monkeypatch):
        opened = []

        class CountingFile(io.FileIO):
            read_bytes = 0

            def read(self, size=-1):
                data = super().read(size)
                self.read_bytes += len(data)
                return data

            def readinto(self, buffer):
                n = super().readinto(buffer)
                self.read_bytes += n
                return n

        def counting_open(file, mode="r", buffering=-1):
            assert buffering == 0, "a buffered reader would read ahead of the loader"
            opened.append(CountingFile(file, mode))
            return opened[-1]

        path = tmp_path / "model.dfsn"
        save_checkpoint(self.make_params(seed=26), path)
        monkeypatch.setattr(data_module, "open", counting_open, raising=False)
        load_checkpoint(path)
        assert [f.read_bytes for f in opened] == [path.stat().st_size]

    def test_write_is_synced_before_rename(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_size))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.path.getsize(src)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        path = tmp_path / "model.dfsn"
        save_checkpoint(self.make_params(seed=17), path)
        size = path.stat().st_size
        # the whole payload reaches the file before it is synced, then renamed
        assert events == [("fsync", size), ("replace", size)]

    def test_failed_write_keeps_the_old_file_and_leaves_no_temporary(self, tmp_path,
                                                                     monkeypatch):
        path = tmp_path / "model.dfsn"
        save_checkpoint(self.make_params(seed=23), path)
        old = path.read_bytes()

        def full_disk(fd):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(OSError) as info:
            save_checkpoint(self.make_params(seed=24), path)
        assert (info.value.errno, info.value.filename) == (errno.ENOSPC, str(path))
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.dfsn"]

    def test_load_makes_no_random_draws(self, tmp_path, monkeypatch):
        params = self.make_params(seed=14)
        path = tmp_path / "model.dfsn"
        save_checkpoint(params, path)

        def no_draws(*_):
            raise AssertionError("random generator created")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded = load_checkpoint(path)
        for name, tensor in params.named_tensors().items():
            assert np.array_equal(loaded.named_tensors()[name].values, tensor.values)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_streamed_write_equals_whole_blob_layout(self, tmp_path, dtype):
        params = init_model(fusion_preset("tiny", dtype=dtype), seed=19)
        path = tmp_path / "model.dfsn"
        save_checkpoint(params, path)
        assert path.read_bytes() == whole_blob_checkpoint(params)

    def test_float64_model_round_trips_at_float32_precision(self, tmp_path):
        params = init_model(fusion_preset("tiny", dtype="float64"), seed=20)
        path = tmp_path / "model.dfsn"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.config == params.config
        for name, tensor in params.named_tensors().items():
            other = loaded.named_tensors()[name].values
            assert other.dtype == np.float64
            assert np.array_equal(other, tensor.values.astype(np.float32)), name

    def test_oversized_config_fails_before_allocating(self, tmp_path):
        # hidden1 = 20000 makes fc1 a (50, 20000) tensor: 12 MB for a loader
        # that allocates the model before checking the file's size
        path = tmp_path / "model.dfsn"
        save_checkpoint(self.make_params(seed=18), path)
        blob = path.read_bytes()
        (config_len,) = struct.unpack_from("<I", blob, 7)
        config = json.loads(blob[11:11 + config_len])
        config["hidden1"] = 20000
        block = json.dumps(config).encode("utf-8")
        path.write_bytes(with_crc(blob[:7] + struct.pack("<I", len(block)) + block
                                  + blob[11 + config_len:-4]))

        def load():
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(path)

        assert peak_traced_bytes(load) < 2 ** 20

    def test_load_holds_the_model_not_the_file(self, tmp_path):
        # a loader that reads the whole file before filling the model holds the
        # payload twice, about 2x the model's bytes (its arrays and their Tensor
        # objects, as tracemalloc counts them) at its peak
        params = self.make_params(seed=19)
        path = tmp_path / "model.dfsn"
        save_checkpoint(params, path)
        model_bytes = peak_traced_bytes(lambda: empty_model(params.config))
        assert peak_traced_bytes(lambda: load_checkpoint(path)) < 1.5 * model_bytes


def config_paths(node, path=()):
    """Path of every dict entry and list element below ``node``, parents first."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield path + (key,)
            yield from config_paths(value, path + (key,))


DELETE = object()


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "tiny.dfsn"
    save_checkpoint(init_model(fusion_preset("tiny"), seed=3), path)
    return path


class TestCheckpointConfigFuzz:
    """Config-field edits with the CRC recomputed, so each edit reaches the parser.

    Replacement integers run from -64 to 2**31 - 1. The loader checks the
    parameter count a config implies against the bytes the file holds before
    it allocates, so no edit makes it allocate more than the file's size.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_only_format_errors(self, tiny_checkpoint, data):
        blob = tiny_checkpoint.read_bytes()
        (config_len,) = struct.unpack_from("<I", blob, 7)
        config = json.loads(blob[11:11 + config_len])
        values = st.one_of(st.just(DELETE), st.integers(-64, 64),
                           st.integers(65, 2 ** 31 - 1),
                           st.sampled_from(["16", "", 2.5, 0.0, True, False, None, [], {}]))
        edits = st.tuples(st.sampled_from(list(config_paths(config))), values)
        for path, value in data.draw(st.lists(edits, min_size=1, max_size=2)):
            node = config
            try:
                for key in path[:-1]:
                    node = node[key]
                if not isinstance(node, (dict, list)):
                    raise TypeError
                node[path[-1]]
            except (KeyError, IndexError, TypeError):
                continue  # the first edit removed or retyped this path
            if value is DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = value
        block = json.dumps(config).encode("utf-8")
        body = blob[:7] + struct.pack("<I", len(block)) + block + blob[11 + config_len:-4]
        fuzzed = tiny_checkpoint.with_name("fuzzed.dfsn")
        fuzzed.write_bytes(with_crc(body))
        try:
            load_checkpoint(fuzzed)
        except CheckpointFormatError:
            pass


class TestGenSynthetic:
    def test_counts_and_balance(self, tmp_path):
        m = gen_synthetic(40, (0.25, 0.25, 0.25, 0.25), seed=1, out_dir=tmp_path)
        assert len(m) == 40
        labels = [s.label for s in m.samples]
        regimes = [s.id[0] for s in m.samples]
        assert regimes.count("a") == regimes.count("b") == 10
        assert all(s.label == 1 for s in m.samples if s.id[0] == "a")
        assert all(s.label == 0 for s in m.samples if s.id[0] == "b")
        for regime in ("c", "d"):
            subset = [s.label for s in m.samples if s.id[0] == regime]
            assert sum(subset) == len(subset) // 2

    def test_images_written_and_loadable(self, tmp_path):
        m = gen_synthetic(8, seed=2, out_dir=tmp_path)
        for s in m.samples:
            pixels = load_ppm(tmp_path / s.image_path)
            assert pixels.shape == (32, 32, 3)

    def test_regime_c_text_is_neutral(self, tmp_path):
        from dfsn.data import NEUTRAL_WORDS

        m = gen_synthetic(40, seed=3, out_dir=tmp_path)
        for s in m.samples:
            if s.id[0] == "c":
                assert set(tokenize(s.text)) <= set(NEUTRAL_WORDS)

    def test_regime_d_text_carries_polarity(self, tmp_path):
        from dfsn.data import NEGATIVE_WORDS, POSITIVE_WORDS

        m = gen_synthetic(40, seed=4, out_dir=tmp_path)
        polar = set(POSITIVE_WORDS) | set(NEGATIVE_WORDS)
        for s in m.samples:
            if s.id[0] == "d":
                assert set(tokenize(s.text)) & polar

    def test_text_lengths_within_filter_bounds(self, tmp_path):
        m = gen_synthetic(60, seed=5, out_dir=tmp_path)
        for s in m.samples:
            assert 5 < len(tokenize(s.text)) < 150

    def test_same_seed_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        m1 = gen_synthetic(12, seed=6, out_dir=d1)
        m2 = gen_synthetic(12, seed=6, out_dir=d2)
        save_manifest(m1, d1 / "m.jsonl")
        save_manifest(m2, d2 / "m.jsonl")
        assert (d1 / "m.jsonl").read_bytes() == (d2 / "m.jsonl").read_bytes()
        for s in m1.samples:
            assert (d1 / s.image_path).read_bytes() == (d2 / s.image_path).read_bytes()

    def test_invalid_proportions(self, tmp_path):
        with pytest.raises(ValueError, match="sum to 1"):
            gen_synthetic(10, (0.5, 0.5, 0.5, 0.5), seed=0, out_dir=tmp_path)
        with pytest.raises(ValueError, match="nonnegative"):
            gen_synthetic(10, (1.5, -0.5, 0.0, 0.0), seed=0, out_dir=tmp_path)

    def test_brightness_threshold_classifier(self, tmp_path):
        """Image-informative regimes separate on mean brightness; the
        image-neutral regime does not."""
        m = gen_synthetic(500, (0.25, 0.25, 0.25, 0.25), seed=7, out_dir=tmp_path)
        correct_ac, total_ac = 0, 0
        correct_d, total_d = 0, 0
        for s in m.samples:
            pixels = load_ppm(tmp_path / s.image_path)
            pred = 1 if pixels.mean() > 115.0 else 0
            if s.id[0] in ("a", "c"):
                total_ac += 1
                correct_ac += pred == s.label
            elif s.id[0] == "d":
                total_d += 1
                correct_d += pred == s.label
        assert correct_ac / total_ac > 0.9
        assert 0.35 < correct_d / total_d < 0.65


class TestMaterialize:
    def test_shapes_and_tokens(self, tmp_path):
        m = gen_synthetic(6, seed=8, out_dir=tmp_path)
        config = fusion_preset("tiny")
        table = EmbeddingTable(dim=config.text.dim)
        samples = materialize(m, tmp_path, config, table)
        assert len(samples) == 6
        for s in samples:
            assert s.image.shape == (3, 16, 16)
            assert s.image.dtype == np.float32
            assert isinstance(s.tokens, list)

    def test_modality_restriction_skips_unused_branch(self, tmp_path):
        m = gen_synthetic(4, seed=9, out_dir=tmp_path)
        config = fusion_preset("tiny", modality="text")
        samples = materialize(m, tmp_path, config, EmbeddingTable(dim=config.text.dim))
        assert all(s.image is None for s in samples)
        config = fusion_preset("tiny", modality="image")
        samples = materialize(m, tmp_path, config, None)
        assert all(s.tokens is None for s in samples)

    def test_absolute_and_relative_image_paths(self, tmp_path):
        m = gen_synthetic(2, seed=10, out_dir=tmp_path / "data")
        elsewhere = tmp_path / "elsewhere.ppm"
        (tmp_path / "data" / m.samples[0].image_path).rename(elsewhere)
        m.samples[0].image_path = str(elsewhere)
        manifest_path = tmp_path / "data" / "manifest.jsonl"
        save_manifest(m, manifest_path)
        config = fusion_preset("tiny", modality="image")
        samples = materialize(load_manifest(manifest_path), manifest_path.parent, config, None)
        for s, path in zip(samples, [elsewhere, tmp_path / "data" / m.samples[1].image_path]):
            expected = preprocess_image(load_ppm(path), 16, dtype=np.float32)
            assert np.array_equal(s.image, expected)
