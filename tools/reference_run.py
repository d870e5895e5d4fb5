"""The reference run: a fixed tiny training run whose artifacts are compared by hash.

Usage, from the root of a checkout:

    python3 tools/reference_run.py

In a temporary directory it runs, through ``dfsn.cli.main``,

    dfsn gen-data --n 200 --seed 42
    dfsn train --preset tiny --epochs 2 --batch-size 50 --lr 0.05 --holdout 0.2 --seed 7

and prints the sha256 of ``history.csv``, ``checkpoint-final.dfsn`` and
``checkpoint-best.dfsn``, then the two metric rows that ``train`` prints. Equal
seeds give byte-identical artifacts, so a change that leaves the arithmetic
alone leaves all three digests as they were; one that changes it moves them.
The checkout's own ``src/`` is imported, not an installed copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dfsn import cli  # noqa: E402

ARTIFACTS = ("history.csv", "checkpoint-final.dfsn", "checkpoint-best.dfsn")


def reference_run() -> tuple[dict[str, str], list[str]]:
    """(artifact name -> sha256 hex digest, the metric rows ``train`` printed)."""
    with tempfile.TemporaryDirectory(prefix="dfsn-reference-") as tmp:
        data, out = Path(tmp) / "data", Path(tmp) / "run"
        steps = (["gen-data", "--out", str(data), "--n", "200", "--seed", "42"],
                 ["train", "--manifest", str(data / "manifest.jsonl"), "--out", str(out),
                  "--preset", "tiny", "--epochs", "2", "--batch-size", "50", "--lr", "0.05",
                  "--holdout", "0.2", "--seed", "7"])
        for argv in steps:
            printed = io.StringIO()  # keeps the last command's output: train's rows
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"dfsn {' '.join(argv)} exited {code}")
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ARTIFACTS}
    return digests, printed.getvalue().splitlines()


def main() -> int:
    digests, rows = reference_run()
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
