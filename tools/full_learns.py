"""Check that the paper-scale ``full`` model learns.

Usage, from the root of a checkout:

    python3 tools/full_learns.py

In a temporary directory it runs, through ``dfsn.cli.main``,

    dfsn gen-data --n 100 --seed 5
    dfsn train --preset full --batch-size 2 --holdout 0.2 --lr 0.01 --epochs 8 --seed 5

prints the train and test accuracy of every epoch from ``history.csv``, and
exits 0 when the best test accuracy reaches ``BOUND``, 1 when it does not.
The rate is 100 times the default ``1e-4``: at the default rate the ``full``
model stays at chance for far more steps than this check can afford (see
README). The checkout's own ``src/`` is imported, not an installed copy.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dfsn import cli  # noqa: E402

SEED = 5
EPOCHS = 8
BOUND = 0.8  # the best test accuracy must reach this


def epoch_accuracies(history_csv: str) -> dict[str, list[float]]:
    """Accuracy per epoch of each split, from the ``epoch`` records of a history."""
    out: dict[str, list[float]] = {}
    for line in history_csv.splitlines():
        fields = line.split(",")
        if fields[0] == "epoch":
            out.setdefault(fields[2], []).append(float(fields[6]))
    return out


def full_run(seed: int, epochs: int) -> dict[str, list[float]]:
    with tempfile.TemporaryDirectory(prefix="dfsn-full-learns-") as tmp:
        data, out = Path(tmp) / "data", Path(tmp) / "run"
        steps = (["gen-data", "--out", str(data), "--n", "100", "--seed", str(seed)],
                 ["train", "--manifest", str(data / "manifest.jsonl"), "--out", str(out),
                  "--preset", "full", "--batch-size", "2", "--holdout", "0.2", "--lr", "0.01",
                  "--epochs", str(epochs), "--seed", str(seed)])
        for argv in steps:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"dfsn {' '.join(argv)} exited {code}")
        return epoch_accuracies((out / "history.csv").read_text(encoding="utf-8"))


def main() -> int:
    acc = full_run(SEED, EPOCHS)
    for split in ("train", "test"):
        print(f"{split}: " + " ".join(f"{a:.3f}" for a in acc[split]))
    best = max(acc["test"])
    verdict = "reaches" if best >= BOUND else "FAILS"
    print(f"best test accuracy {best:.3f} {verdict} the bound {BOUND}")
    return 0 if best >= BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
