"""Command-line surface: data generation, training, evaluation, prediction,
gradient checking, and history reports.

Results go to stdout or files; diagnostics go to stderr. Every command is
deterministic given identical flags, config file, and inputs. Each command
takes only the flags it reads; settings merge as defaults < config file < flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import data as dio
from .model import MODALITIES, FusionConfig, fusion_preset, init_model, predict
from .text import EmbeddingTable
from .train import TrainConfig, TrainingError, evaluate, render_history_markdown
from .train import train as run_training
from .verify import run_gradcheck_suite

CONFIG_DEFAULTS = {
    "preset": "tiny",        # model scale: tiny | full
    "modality": "fused",     # fused | image | text
    "seed": 0,               # master seed for init, shuffling, fallbacks
    "batch_size": 100,
    "lr": 1e-4,              # initial learning rate
    "decay_base": 0.96,
    "decay_every": 3000,
    "epochs": 10,
    "eval_every": 1,
    "holdout": 0.0,          # fraction split off for testing during train
    "n": 1000,               # gen-data sample count
    "mix": "0.25,0.25,0.25,0.25",  # gen-data regime proportions a,b,c,d
}


class CliError(Exception):
    """User-facing failure: printed to stderr, exits nonzero."""


def parse_flat_config(path) -> dict[str, str]:
    """Flat key = value file of string values; '#' starts a comment, and
    surrounding quotes are removed."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = list(dio.utf8_lines(fh, path, CliError))
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise CliError(f"{path}: line {lineno}: empty key")
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        out[key] = value
    return out


def _setting_value(path, key: str, text: str):
    """A config-file value as the type of its setting's default, or a
    ``CliError`` naming the file."""
    kind = type(CONFIG_DEFAULTS[key])
    try:
        return kind(text)
    except ValueError:
        raise CliError(f"{path}: {key} must be {kind.__name__}, got {text!r}") from None


def resolve_settings(args: argparse.Namespace) -> dict:
    """Merge defaults, then the config file, then explicit flags; the seed
    must lie in [0, 2**64)."""
    settings = dict(CONFIG_DEFAULTS)
    if getattr(args, "config", None):
        file_values = parse_flat_config(args.config)
        unknown = set(file_values) - set(CONFIG_DEFAULTS)
        if unknown:
            raise CliError(f"{args.config}: unknown settings {sorted(unknown)}")
        settings.update({key: _setting_value(args.config, key, value)
                         for key, value in file_values.items()})
    for key in CONFIG_DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    seed = settings["seed"]
    if not 0 <= seed < 2**64:
        source = "--seed" if getattr(args, "seed", None) is not None else f"{args.config}: seed"
        raise CliError(f"{source} must be in [0, 2**64), got {seed}")
    return settings


def _load_table(config: FusionConfig, path, seed: int) -> Optional[EmbeddingTable]:
    """The word vectors a model's text branch reads, every value finite in the
    model's dtype; None without a text branch."""
    if config.text is None:
        return None
    dim = config.text.dim
    if path is None:
        # no vector file: every word uses the deterministic seeded fallback
        return EmbeddingTable(dim=dim, fallback_seed=seed)
    table = dio.load_embeddings(path, fallback_seed=seed, dtype=config.np_dtype)
    if table.dim != dim:
        raise CliError(f"{path}: embedding dimension {table.dim} != model dimension {dim}")
    return table


def _load_filtered(path) -> dio.Manifest:
    """A manifest's samples of 5 < words < 150 tokens, or a ``CliError``
    naming the file if none is left."""
    manifest = dio.filter_by_length(dio.load_manifest(path))
    if len(manifest) == 0:
        raise CliError(f"{path}: no samples left after the 5 < words < 150 length filter")
    return manifest


def _parse_mix(text: str) -> tuple[float, ...]:
    try:
        mix = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"bad regime mix {text!r}: expected 4 comma-separated numbers") from None
    return mix


def cmd_gen_data(args) -> int:
    settings = resolve_settings(args)
    if args.out is None:
        raise CliError("gen-data needs --out")
    mix = _parse_mix(settings["mix"])
    out_dir = Path(args.out)
    manifest = dio.gen_synthetic(settings["n"], mix, seed=settings["seed"], out_dir=out_dir)
    manifest_path = out_dir / "manifest.jsonl"
    dio.save_manifest(manifest, manifest_path)
    print(manifest_path)
    print(f"wrote {len(manifest)} samples under {out_dir}", file=sys.stderr)
    return 0


def _build_train_config(settings) -> TrainConfig:
    return TrainConfig(batch_size=settings["batch_size"], initial_lr=settings["lr"],
                       decay_base=settings["decay_base"], decay_every=settings["decay_every"],
                       epochs=settings["epochs"], seed=settings["seed"],
                       eval_every=settings["eval_every"])


def cmd_train(args) -> int:
    settings = resolve_settings(args)
    if args.manifest is None:
        raise CliError("train needs --manifest")
    if args.out is None:
        raise CliError("train needs --out")
    seed, holdout = settings["seed"], settings["holdout"]
    if not 0.0 <= holdout < 1.0:
        raise CliError(f"holdout must be in [0, 1), got {holdout}")
    if args.eval_manifest is not None and holdout > 0.0:
        raise CliError(f"give --eval-manifest or holdout {holdout}, not both")
    config = fusion_preset(settings["preset"], modality=settings["modality"])
    manifest = _load_filtered(args.manifest)
    table = _load_table(config, args.embeddings, seed)
    base_dir = Path(args.manifest).parent
    eval_samples = None
    if args.eval_manifest is not None:
        eval_manifest = _load_filtered(args.eval_manifest)
        eval_samples = dio.materialize(eval_manifest, Path(args.eval_manifest).parent,
                                       config, table)
    elif holdout > 0.0:
        manifest, eval_manifest = dio.split_train_test(manifest, seed, train_frac=1.0 - holdout)
        if len(manifest) == 0:
            raise CliError(f"{args.manifest}: holdout {holdout} leaves no training samples")
        eval_samples = dio.materialize(eval_manifest, base_dir, config, table)
    train_samples = dio.materialize(manifest, base_dir, config, table)

    params = init_model(config, seed=seed)
    cfg = _build_train_config(settings)
    print(f"training {config.modality} model on {len(train_samples)} samples "
          f"({cfg.epochs} epochs, batch {cfg.batch_size})", file=sys.stderr)
    params, history = run_training(params, train_samples, cfg, table=table,
                                   eval_samples=eval_samples, out_dir=args.out)
    # the rows of the last evaluation: train, then test when there is a test split
    for record in history.epochs:
        if record.epoch == history.epochs[-1].epoch:
            print(f"{record.split} {record.metrics.row()}")
    print(f"checkpoints and history written under {args.out}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    settings = resolve_settings(args)
    if args.checkpoint is None or args.manifest is None:
        raise CliError("eval needs --checkpoint and --manifest")
    params = dio.load_checkpoint(args.checkpoint)
    table = _load_table(params.config, args.embeddings, settings["seed"])
    manifest = dio.load_manifest(args.manifest)
    if len(manifest) == 0:
        raise CliError(f"{args.manifest}: no samples to evaluate")
    samples = dio.materialize(manifest, Path(args.manifest).parent, params.config, table)
    report = evaluate(params, samples, table)
    print(report.row())
    return 0


def cmd_predict(args) -> int:
    settings = resolve_settings(args)
    if args.checkpoint is None:
        raise CliError("predict needs --checkpoint")
    params = dio.load_checkpoint(args.checkpoint)
    config = params.config
    image = None
    if config.image is not None:
        if args.image is None:
            raise CliError("this model needs --image")
        image = dio.load_ppm(args.image)
    if config.text is not None and args.text is None:
        raise CliError("this model needs --text")
    table = _load_table(config, args.embeddings, settings["seed"])
    result = predict(image, args.text, params, table)
    print(f"{result.label} {result.p_neg:.3f} {result.p_pos:.3f}")
    return 0


def cmd_gradcheck(args) -> int:
    settings = resolve_settings(args)
    results = run_gradcheck_suite(seed=settings["seed"])
    failures = 0
    for name, report in results:
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {name}: max_rel_err={report.max_rel_err:.3e} (tol={report.tol:.1e})")
        if not report.passed:
            failures += 1
            print(str(report), file=sys.stderr)
    return 1 if failures else 0


def cmd_report(args) -> int:
    if args.history is None:
        raise CliError("report needs --history")
    with open(args.history, "r", encoding="utf-8") as fh:
        csv_text = "".join(dio.utf8_lines(fh, args.history, CliError))
    try:
        rendered = render_history_markdown(csv_text)
    except ValueError as exc:
        raise CliError(f"{args.history}: {exc}") from None
    if args.out:
        Path(args.out).write_text(rendered, encoding="utf-8")
        print(args.out)
    else:
        print(rendered, end="")
    return 0


# every flag, declared once: its name without the leading "--" and its argparse
# keywords; a setting's flag takes the type of its CONFIG_DEFAULTS entry
FLAGS = {
    "config": dict(help="flat key = value settings file"),
    "seed": dict(help="master random seed"),
    "preset": dict(choices=("full", "tiny"), help="model scale"),
    "modality": dict(choices=MODALITIES),
    "embeddings": dict(help="word-vector file (textual format)"),
    "manifest": dict(help="JSONL dataset manifest"),
    "eval-manifest": dict(help="explicit test manifest"),
    "checkpoint": dict(help="model checkpoint path"),
    "out": dict(help="output file or directory"),
    "batch-size": dict(),
    "lr": dict(help="initial learning rate"),
    "decay-base": dict(),
    "decay-every": dict(),
    "epochs": dict(),
    "eval-every": dict(),
    "holdout": dict(help="fraction held out for testing"),
    "n": dict(help="sample count"),
    "mix": dict(help="regime proportions a,b,c,d (must sum to 1)"),
    "image": dict(help="PPM image path"),
    "text": dict(help="raw text"),
    "history": dict(help="history.csv written by train"),
}

# subcommand: (handler, help, the flags the handler reads)
COMMANDS = {
    "gen-data": (cmd_gen_data, "generate the synthetic cross-modal dataset",
                 "config seed out n mix"),
    "train": (cmd_train, "train a model and write checkpoints + history",
              "config seed preset modality embeddings manifest eval-manifest out batch-size lr "
              "decay-base decay-every epochs eval-every holdout"),
    "eval": (cmd_eval, "print Prec. Rec. F1 Acc. for a checkpoint",
             "config seed embeddings manifest checkpoint"),
    "predict": (cmd_predict, "classify one image + text pair",
                "config seed embeddings checkpoint image text"),
    "gradcheck": (cmd_gradcheck, "run the gradient-check suite (tiny presets)", "config seed"),
    "report": (cmd_report, "render a history CSV as markdown", "history out"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfsn", description="joint visual-textual sentiment classification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            kind = type(CONFIG_DEFAULTS.get(flag.replace("-", "_"), ""))
            p.add_argument("--" + flag, type=kind, **FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an overflow ends in the non-finite loss or probabilities that the
        # commands reject, not in numpy warnings ahead of the error line
        with np.errstate(all="ignore"):
            return args.fn(args)
    # every loader error type (manifest, word vectors, PPM, checkpoint) is a ValueError;
    # a TrainingError is a run that cannot go on, such as a loss gone non-finite
    except (CliError, ValueError, OSError, TrainingError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            # the path as given, where str(exc) would show its repr
            exc = f"{exc.filename}: {exc.strerror}"
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
