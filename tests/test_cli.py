"""Command-line surface: wiring, determinism, config merging, exit codes."""

import argparse
import json
import struct
import zlib

import numpy as np
import pytest

from dfsn.cli import build_parser, main, parse_flat_config
from dfsn.data import (Manifest, Sample, gen_synthetic, save_checkpoint, save_manifest,
                       save_ppm)
from dfsn.model import empty_model, fusion_preset, init_model


@pytest.fixture
def dataset(tmp_path):
    d = tmp_path / "data"
    manifest = gen_synthetic(24, (0.3, 0.3, 0.2, 0.2), seed=1, out_dir=d)
    save_manifest(manifest, d / "manifest.jsonl")
    return d


@pytest.fixture
def zero_checkpoint(tmp_path):
    path = tmp_path / "zero.dfsn"
    save_checkpoint(empty_model(fusion_preset("tiny")), path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenData:
    def test_writes_manifest_and_images(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code, stdout, _ = run(capsys, "gen-data", "--n", "10", "--seed", "7",
                              "--out", str(out))
        assert code == 0
        assert (out / "manifest.jsonl").exists()
        assert len(list((out / "images").glob("*.ppm"))) == 10
        assert "manifest.jsonl" in stdout

    def test_rerun_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _, _ = run(capsys, "gen-data", "--n", "8", "--seed", "3",
                             "--out", str(out))
            assert code == 0
        assert (a / "manifest.jsonl").read_bytes() == (b / "manifest.jsonl").read_bytes()
        for ppm in sorted((a / "images").glob("*.ppm")):
            assert ppm.read_bytes() == (b / "images" / ppm.name).read_bytes()

    def test_bad_mix_exits_nonzero_with_stderr(self, tmp_path, capsys):
        code, stdout, stderr = run(capsys, "gen-data", "--n", "4", "--mix",
                                   "0.5,0.5,0.5,0.5", "--out", str(tmp_path / "x"))
        assert code != 0
        assert "error" in stderr
        assert stdout == ""

    @pytest.mark.parametrize("mix", ["nan,0,0,1", "inf,0,0,1"])
    def test_non_finite_mix_exits_nonzero_with_stderr(self, mix, tmp_path, capsys):
        code, stdout, stderr = run(capsys, "gen-data", "--n", "4", "--mix", mix,
                                   "--out", str(tmp_path / "x"))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: regime proportions must be finite")

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_non_positive_n_exits_nonzero(self, n, tmp_path, capsys):
        code, stdout, stderr = run(capsys, "gen-data", "--n", n, "--out", str(tmp_path / "x"))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith(f"error: n must be at least 1, got {n}")
        assert not (tmp_path / "x" / "manifest.jsonl").exists()


class TestTrainEvalPredict:
    def test_train_writes_outputs_and_eval_reads_them(self, dataset, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, stderr = run(
            capsys, "train", "--manifest", str(dataset / "manifest.jsonl"),
            "--out", str(out), "--preset", "tiny", "--epochs", "3",
            "--batch-size", "6", "--lr", "0.05", "--seed", "5")
        assert code == 0, stderr
        assert (out / "checkpoint-final.dfsn").exists()
        assert (out / "checkpoint-best.dfsn").exists()
        assert (out / "history.csv").exists()
        assert "train" in stdout

        code, stdout, _ = run(capsys, "eval", "--checkpoint",
                              str(out / "checkpoint-final.dfsn"),
                              "--manifest", str(dataset / "manifest.jsonl"))
        assert code == 0
        fields = stdout.split()
        assert len(fields) == 4
        for f in fields:
            assert 0.0 <= float(f) <= 1.0

    # rows of the last evaluated epoch only: train, then test with a test split
    @pytest.mark.parametrize("holdout,eval_every,splits", [("0", "1", ["train"]),
                                                           ("0", "2", ["train"]),
                                                           ("0.25", "1", ["train", "test"])])
    def test_train_prints_the_rows_of_its_last_evaluation(self, holdout, eval_every, splits,
                                                          dataset, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, stderr = run(
            capsys, "train", "--manifest", str(dataset / "manifest.jsonl"), "--out", str(out),
            "--epochs", "3", "--batch-size", "6", "--lr", "0.05", "--holdout", holdout,
            "--eval-every", eval_every)
        assert code == 0, stderr
        records = [line.split(",")[1:] for line in
                   (out / "history.csv").read_text().splitlines() if line.startswith("epoch,")]
        last = str(3 // int(eval_every) * int(eval_every))
        assert stdout.splitlines() == [
            f"{split} " + " ".join(f"{float(v):.3f}" for v in values)
            for epoch, split, *values in records if epoch == last]
        assert [line.split()[0] for line in stdout.splitlines()] == splits

    def test_train_determinism_across_runs(self, dataset, tmp_path, capsys):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code, _, _ = run(capsys, "train", "--manifest",
                             str(dataset / "manifest.jsonl"), "--out", str(out),
                             "--epochs", "2", "--batch-size", "6",
                             "--lr", "0.05", "--seed", "9")
            assert code == 0
            outs.append(out)
        assert (outs[0] / "history.csv").read_bytes() == (outs[1] / "history.csv").read_bytes()
        assert (outs[0] / "checkpoint-final.dfsn").read_bytes() == \
            (outs[1] / "checkpoint-final.dfsn").read_bytes()

    def test_predict_zero_checkpoint_is_uniform(self, zero_checkpoint, tmp_path, capsys):
        img = tmp_path / "img.ppm"
        save_ppm(img, np.full((8, 8, 3), 200, dtype=np.uint8))
        code, stdout, _ = run(capsys, "predict", "--checkpoint", str(zero_checkpoint),
                              "--image", str(img), "--text", "a fine day")
        assert code == 0
        assert stdout.strip() == "0 0.500 0.500"

    def test_missing_checkpoint_file_fails(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "eval", "--checkpoint",
                              str(tmp_path / "nope.dfsn"), "--manifest",
                              str(tmp_path / "nope.jsonl"))
        assert code != 0
        assert "error" in stderr


class TestMalformedInputsExitNonzero:
    def test_malformed_embeddings(self, zero_checkpoint, tmp_path, capsys):
        img = tmp_path / "img.ppm"
        save_ppm(img, np.zeros((4, 4, 3), dtype=np.uint8))
        bad = tmp_path / "bad.vec"
        bad.write_text("2 3\nword 1 2\n")
        code, _, stderr = run(capsys, "predict", "--checkpoint", str(zero_checkpoint),
                              "--image", str(img), "--text", "hi there",
                              "--embeddings", str(bad))
        assert code != 0
        assert "line 2" in stderr

    def test_vector_beyond_float32_range_named_in_error(self, zero_checkpoint, tmp_path,
                                                         capsys):
        # finite in float64, inf once a float32 model casts it
        img = tmp_path / "img.ppm"
        save_ppm(img, np.zeros((4, 4, 3), dtype=np.uint8))
        vectors = tmp_path / "huge.vec"
        vectors.write_text("1 200\nhappy" + " 1e300" * 200 + "\n")
        code, stdout, stderr = run(capsys, "predict", "--checkpoint", str(zero_checkpoint),
                                   "--image", str(img), "--text", "happy day",
                                   "--embeddings", str(vectors))
        assert code == 1
        assert stdout == ""
        assert stderr == f"error: {vectors}: line 2: a value of 'happy' is not a finite float32\n"

    # every tensor scaled by 1e30 stays finite in float32, so the checkpoint
    # loads, but the activations overflow on the way to the probabilities; a
    # numpy warning would print ahead of the error line, so it fails the test
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_non_finite_probabilities_end_in_error(self, command, dataset, tmp_path, capsys):
        params = init_model(fusion_preset("tiny"), seed=0)
        for t in params.tensors():
            t.values *= 1e30
        checkpoint = tmp_path / "huge.dfsn"
        save_checkpoint(params, checkpoint)
        if command == "predict":
            img = tmp_path / "img.ppm"
            save_ppm(img, np.full((8, 8, 3), 200, dtype=np.uint8))
            inputs = ["--image", str(img), "--text", "happy day"]
        else:
            inputs = ["--manifest", str(dataset / "manifest.jsonl")]
        code, stdout, stderr = run(capsys, command, "--checkpoint", str(checkpoint), *inputs)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error: the class probabilities are not finite")

    def test_malformed_ppm(self, zero_checkpoint, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P3\n1 1\n255\n1 2 3\n")
        code, _, stderr = run(capsys, "predict", "--checkpoint", str(zero_checkpoint),
                              "--image", str(bad), "--text", "hi there")
        assert code != 0
        assert "P3" in stderr

    def test_corrupt_checkpoint(self, zero_checkpoint, tmp_path, capsys):
        blob = bytearray(zero_checkpoint.read_bytes())
        blob[-10] ^= 0x55
        bad = tmp_path / "corrupt.dfsn"
        bad.write_bytes(bytes(blob))
        img = tmp_path / "img.ppm"
        save_ppm(img, np.zeros((4, 4, 3), dtype=np.uint8))
        code, _, stderr = run(capsys, "predict", "--checkpoint", str(bad),
                              "--image", str(img), "--text", "hi")
        assert code != 0
        assert "checksum" in stderr

    # each value used to escape as a traceback from the model builder
    @pytest.mark.parametrize("path,value", [
        (("image", "layers", 0, "kernel"), 0),
        (("image", "layers", 0, "stride"), 0),
        (("image", "layers", 0, "out_channels"), -3),
        (("image", "input_side"), "16"),
        (("hidden1",), 2.5),
        (("modality",), "audio"),
    ], ids=["kernel-0", "stride-0", "out_channels-neg3", "input_side-str", "hidden1-float",
            "modality-audio"])
    def test_bad_config_value(self, path, value, zero_checkpoint, dataset, tmp_path, capsys):
        blob = zero_checkpoint.read_bytes()
        (config_len,) = struct.unpack_from("<I", blob, 7)
        config = json.loads(blob[11:11 + config_len])
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        block = json.dumps(config).encode("utf-8")
        body = blob[:7] + struct.pack("<I", len(block)) + block + blob[11 + config_len:-4]
        bad = tmp_path / "badconfig.dfsn"
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        code, stdout, stderr = run(capsys, "predict", "--checkpoint", str(bad),
                                   "--image", str(dataset / "images" / "a00000.ppm"),
                                   "--text", "hi")
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:")
        assert "bad config block" in stderr

    @pytest.mark.parametrize("command", ["eval", "predict"])
    def test_overrunning_tensor_table(self, command, zero_checkpoint, dataset, tmp_path,
                                      capsys):
        # valid CRC, but the tensor count promises one record more than the file holds
        body = bytearray(zero_checkpoint.read_bytes()[:-4])
        count_pos = 7 + 4 + struct.unpack_from("<I", body, 7)[0]
        (count,) = struct.unpack_from("<I", body, count_pos)
        body[count_pos:count_pos + 4] = struct.pack("<I", count + 1)
        bad = tmp_path / "overrun.dfsn"
        bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        args = ["--manifest", str(dataset / "manifest.jsonl")]
        if command == "predict":
            args = ["--image", str(dataset / "images" / "a00000.ppm"), "--text", "hi"]
        code, _, stderr = run(capsys, command, "--checkpoint", str(bad), *args)
        assert code == 1
        assert stderr.startswith("error:")


    # outside [0, 1) no split is meant: 1.5 would give a 50/50 split, -0.5 no held-out set
    @pytest.mark.parametrize("holdout", ["1.5", "-0.5"])
    def test_holdout_outside_unit_interval(self, holdout, dataset, tmp_path, capsys):
        code, stdout, stderr = run(capsys, "train", "--manifest",
                                   str(dataset / "manifest.jsonl"), "--out",
                                   str(tmp_path / "run"), "--holdout", holdout)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:")
        assert holdout in stderr
        assert not (tmp_path / "run").exists()

    # nan passes a `<= 0` check; 1e30 is finite but blows the loss up at step 1
    @pytest.mark.parametrize("lr,message", [("nan", "initial_lr"),
                                            ("1e30", "non-finite loss")])
    def test_unusable_learning_rate(self, lr, message, dataset, tmp_path, capsys):
        code, _, stderr = run(capsys, "train", "--manifest", str(dataset / "manifest.jsonl"),
                              "--out", str(tmp_path / "run"), "--epochs", "2",
                              "--batch-size", "10", "--lr", lr)
        # the run may announce itself before it fails
        assert code == 1
        assert stderr.splitlines()[-1].startswith("error:")
        assert message in stderr.splitlines()[-1]
        assert "Traceback" not in stderr

    def test_negative_eval_every(self, dataset, tmp_path, capsys):
        code, _, stderr = run(capsys, "train", "--manifest", str(dataset / "manifest.jsonl"),
                              "--out", str(tmp_path / "run"), "--epochs", "1",
                              "--eval-every", "-2")
        assert code == 1
        assert stderr.startswith("error:")
        assert "eval_every" in stderr

    # a held-out split and an explicit test manifest would each set the test set
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_holdout_with_eval_manifest(self, source, dataset, tmp_path, capsys):
        manifest = str(dataset / "manifest.jsonl")
        holdout = ["--holdout", "0.5"]
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("holdout = 0.5\n")
            holdout = ["--config", str(cfg)]
        code, stdout, stderr = run(capsys, "train", "--manifest", manifest,
                                   "--eval-manifest", manifest, "--out",
                                   str(tmp_path / "run"), *holdout)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:")
        assert "--eval-manifest" in stderr and "holdout 0.5" in stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["manifest", "embeddings"])
    def test_non_utf8_file_named_in_error(self, kind, dataset, tmp_path, capsys):
        manifest = dataset / "manifest.jsonl"
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(b"1 2\n\xff\xfe 1 2\n")
        if kind == "manifest":
            manifest = tmp_path / "latin1.jsonl"
            manifest.write_bytes(b'{"id": "a", "image": "x", "text": "caf\xe9", "label": 0}\n')
        code, stdout, stderr = run(capsys, "train", "--manifest", str(manifest),
                                   "--embeddings", str(vectors), "--out", str(tmp_path / "run"))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:")
        bad = manifest if kind == "manifest" else vectors
        assert str(bad) in stderr and "UTF-8" in stderr

    def test_embedding_dimension_mismatch_names_the_file(self, zero_checkpoint, tmp_path,
                                                          capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("1 2\nhi 1 2\n")
        code, stdout, stderr = run(capsys, "eval", "--checkpoint", str(zero_checkpoint),
                                   "--manifest", str(tmp_path / "unused.jsonl"),
                                   "--embeddings", str(vectors))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith(f"error: {vectors}: embedding dimension 2 != model dimension")

    def test_unknown_modality_in_config_file(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("modality = audio\n")
        code, stdout, stderr = run(capsys, "train", "--manifest",
                                   str(dataset / "manifest.jsonl"), "--config", str(cfg),
                                   "--out", str(tmp_path / "run"))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:")
        assert "audio" in stderr
        assert "Traceback" not in stderr

    # each ends before any training step, with the file that holds no usable sample named
    @pytest.mark.parametrize("case", ["train-filtered", "eval-manifest-filtered",
                                      "holdout-leaves-none", "eval-empty"])
    def test_empty_dataset_named_before_training(self, case, zero_checkpoint, dataset,
                                                 tmp_path, capsys):
        full = str(dataset / "manifest.jsonl")
        empty = tmp_path / "empty.jsonl"
        text = "" if case == "eval-empty" else (
            "one two three four five six" if case == "holdout-leaves-none" else "too short")
        save_manifest(Manifest([Sample("a0", str(dataset / "images" / "a00000.ppm"), text, 1)]
                               if text else []), empty)
        out = ["--out", str(tmp_path / "run")]
        argv = {"train-filtered": ["train", "--manifest", str(empty), *out],
                "eval-manifest-filtered": ["train", "--manifest", full,
                                           "--eval-manifest", str(empty), *out],
                "holdout-leaves-none": ["train", "--manifest", str(empty), "--holdout", "0.5",
                                        *out],
                "eval-empty": ["eval", "--checkpoint", str(zero_checkpoint),
                               "--manifest", str(empty)]}[case]
        code, stdout, stderr = run(capsys, *argv)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:") and len(stderr.splitlines()) == 1
        assert str(empty) in stderr
        assert not (tmp_path / "run").exists()

    def test_manifest_line_not_an_object(self, tmp_path, capsys):
        manifest = tmp_path / "five.jsonl"
        manifest.write_text("5\n")
        code, _, stderr = run(capsys, "train", "--manifest", str(manifest),
                              "--out", str(tmp_path / "run"))
        assert code == 1
        assert stderr.startswith("error:")

    def test_non_finite_checkpoint_payload(self, zero_checkpoint, dataset, tmp_path, capsys):
        body = bytearray(zero_checkpoint.read_bytes()[:-4])
        name = b"fc1.weight"
        first = body.index(name) + len(name) + 1 + 2 * 4
        body[first:first + 4] = struct.pack("<f", np.nan)
        bad = tmp_path / "nan.dfsn"
        bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
        code, stdout, stderr = run(capsys, "predict", "--checkpoint", str(bad),
                                   "--image", str(dataset / "images" / "a00000.ppm"),
                                   "--text", "hi")
        assert code == 1
        assert stdout == ""
        assert "fc1.weight" in stderr


class TestReport:
    def test_renders_markdown(self, tmp_path, capsys):
        history = tmp_path / "history.csv"
        history.write_text("step,0,0.0001,0.69\nepoch,1,train,0.8,0.7,0.75,0.78\n")
        code, stdout, _ = run(capsys, "report", "--history", str(history))
        assert code == 0
        assert "| Epoch | Split |" in stdout

    def test_writes_file_with_out(self, tmp_path, capsys):
        history = tmp_path / "history.csv"
        history.write_text("step,0,0.0001,0.69\n")
        out = tmp_path / "report.md"
        code, stdout, _ = run(capsys, "report", "--history", str(history),
                              "--out", str(out))
        assert code == 0
        assert out.exists()

    def test_malformed_history_fails(self, tmp_path, capsys):
        history = tmp_path / "history.csv"
        history.write_text("garbage line\n")
        code, _, stderr = run(capsys, "report", "--history", str(history))
        assert code != 0
        assert stderr.startswith(f"error: {history}: history line 1")

    def test_non_utf8_history_named_in_error(self, tmp_path, capsys):
        history = tmp_path / "history.csv"
        history.write_bytes(b"step,0,0.0001,0.69\ncaf\xe9\n")
        code, stdout, stderr = run(capsys, "report", "--history", str(history))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith(f"error: {history}: not UTF-8 text (")


class TestConfigFile:
    def test_parse_types(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nseed = 5\nlr = 0.01\npreset = 'full'\n"
                       "mix = \"0.4,0.4,0.1,0.1\"\n")
        parsed = parse_flat_config(cfg)
        assert parsed == {"seed": "5", "lr": "0.01", "preset": "full",
                          "mix": "0.4,0.4,0.1,0.1"}

    def test_flags_override_file(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nbatch_size = 6\nlr = 0.05\nseed = 2\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        code, _, _ = run(capsys, "train", "--manifest", str(dataset / "manifest.jsonl"),
                         "--config", str(cfg), "--out", str(out1))
        assert code == 0
        # flag overrides the file's epoch count: more steps recorded
        code, _, _ = run(capsys, "train", "--manifest", str(dataset / "manifest.jsonl"),
                         "--config", str(cfg), "--epochs", "2", "--out", str(out2))
        assert code == 0
        lines1 = (out1 / "history.csv").read_text().count("step,")
        lines2 = (out2 / "history.csv").read_text().count("step,")
        assert lines2 == 2 * lines1

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, stderr = run(capsys, "gradcheck", "--config", str(cfg))
        assert code != 0
        assert "bogus" in stderr

    def test_non_utf8_config_named_in_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"# caf\xe9\nseed = 1\n")
        code, stdout, stderr = run(capsys, "gradcheck", "--config", str(cfg))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith(f"error: {cfg}: not UTF-8 text (")

    @pytest.mark.parametrize("line", ["seed = 3x", "seed = 1.5", "seed = true",
                                      "lr = 'fast'", "holdout = false"])
    def test_mistyped_value_named_in_error(self, line, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, stdout, stderr = run(capsys, "gradcheck", "--config", str(cfg))
        assert code == 1
        assert stdout == ""
        assert stderr.startswith(f"error: {cfg}: {line.split()[0]} must be ")

    def test_values_take_their_settings_types(self, tmp_path):
        from dfsn.cli import resolve_settings

        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = '7'\nlr = 1\nmix = 1\n")
        settings = resolve_settings(argparse.Namespace(config=str(cfg)))
        assert (settings["seed"], settings["lr"], settings["mix"]) == (7, 1.0, "1")
        assert type(settings["lr"]) is float

    @pytest.mark.parametrize("seed", [-1, 2**64, 10**70])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_seed_outside_range_named_in_error(self, source, seed, tmp_path, capsys):
        out = tmp_path / "gen"
        argv = ["gen-data", "--n", "3", "--out", str(out)]
        if source == "flag":
            argv += ["--seed", str(seed)]
            named = "--seed"
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"seed = {seed}\n")
            argv += ["--config", str(cfg)]
            named = f"{cfg}: seed"
        code, stdout, stderr = run(capsys, *argv)
        assert code == 1
        assert stdout == ""
        assert stderr == f"error: {named} must be in [0, 2**64), got {seed}\n"
        assert not out.exists()

    def test_seed_range_ends_below_two_to_the_64(self, tmp_path):
        from dfsn.cli import resolve_settings

        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = {2**64 - 1}\n")
        settings = resolve_settings(argparse.Namespace(config=str(cfg), seed=None))
        assert settings["seed"] == 2**64 - 1

    def test_missing_equals_rejected(self, tmp_path):
        from dfsn.cli import CliError

        cfg = tmp_path / "run.cfg"
        cfg.write_text("just a line\n")
        with pytest.raises(CliError, match="line 1"):
            parse_flat_config(cfg)


class TestGradcheckCommand:
    def test_passes_on_tiny_presets(self, capsys):
        code, stdout, _ = run(capsys, "gradcheck", "--seed", "0")
        assert code == 0
        assert "PASS fusion_model_end_to_end" in stdout
        assert "FAIL" not in stdout


# the flags each command's handler reads; any other flag is a usage error
ACCEPTED = {
    "gen-data": {"--config", "--seed", "--out", "--n", "--mix"},
    "train": {"--config", "--seed", "--preset", "--modality", "--embeddings", "--manifest",
              "--eval-manifest", "--out", "--batch-size", "--lr", "--decay-base",
              "--decay-every", "--epochs", "--eval-every", "--holdout"},
    "eval": {"--config", "--seed", "--embeddings", "--manifest", "--checkpoint"},
    "predict": {"--config", "--seed", "--embeddings", "--checkpoint", "--image", "--text"},
    "gradcheck": {"--config", "--seed"},
    "report": {"--history", "--out"},
}

# flags every command used to accept without reading them
REMOVED = [
    ("gen-data", "--preset"), ("gen-data", "--embeddings"), ("gen-data", "--manifest"),
    ("gen-data", "--checkpoint"),
    ("train", "--checkpoint"),
    ("eval", "--preset"), ("eval", "--out"),
    ("predict", "--preset"), ("predict", "--manifest"), ("predict", "--out"),
    ("gradcheck", "--preset"), ("gradcheck", "--embeddings"), ("gradcheck", "--manifest"),
    ("gradcheck", "--checkpoint"), ("gradcheck", "--out"),
    ("report", "--config"), ("report", "--seed"), ("report", "--preset"),
    ("report", "--embeddings"), ("report", "--manifest"), ("report", "--checkpoint"),
]


class TestFlagSurface:
    def test_each_command_takes_exactly_its_flags(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: {opt for action in p._actions for opt in action.option_strings}
                 - {"-h", "--help"} for name, p in sub.choices.items()}
        assert flags == ACCEPTED
        assert sum(map(len, flags.values())) == 35

    @pytest.mark.parametrize("command,flag", REMOVED,
                             ids=[f"{c}{f}" for c, f in REMOVED])
    def test_unread_flag_is_a_usage_error(self, command, flag, capsys):
        value = "tiny" if flag == "--preset" else "1"
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
