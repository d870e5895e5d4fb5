"""Alternating A/B benchmark pairs: a parent revision against the working tree.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --workload tiny-train --pairs 10 --seconds 45
    python3 tools/bench_pairs.py --parent HEAD~1 --workload full-train --pairs 4 --trace

The parent revision is exported with ``git archive`` into a temporary
directory, so nothing is recorded in ``.git`` and an interrupted run leaves
no worktree to prune. Pair i runs the unchanged ``perfbench/run.py --trace 0``
once from each tree with seed ``first_seed + i``; the parent goes first in
even pairs and the change in odd ones, so a machine that drifts within a
pair favours neither side. Each run's last JSON line is parsed, and every
end-to-end metric of ``BENCHMARK.json`` is printed with the median and
quartiles per side, the change/parent ratio of the medians, the number of
pairs the change won, and whether the median gap exceeds the parent's
interquartile range. A verdict line per metric follows the table (see
``verdict``), and the failed-operation counts of both sides close the
report. With ``--trace``, both sides run ``--trace 1`` instead and the table
covers the per-layer metrics of ``BENCHMARK.json`` (per-op milliseconds per
step, spans, step percentiles); traced runs report no end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def last_json(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a benchmark run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def verdict(spec: dict, pq: tuple[float, float, float], gap: float, won: int, pairs: int) -> str:
    """``gain`` when the change won at least 9/10 of the pairs and its median
    beats the parent's by a ``gap`` larger than the parent's IQR; ``worse`` when
    its median is worse than the parent's by more than the metric's relative
    ``bound`` (a metric without one is never ``worse``); ``unresolved`` otherwise."""
    if 10 * won >= 9 * pairs and gap > pq[2] - pq[0]:
        return "gain"
    if "bound" in spec and -gap > spec["bound"] * abs(pq[1]):
        return "worse"
    return "unresolved"


def summarise(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """Report lines for (parent result, change result) pairs: the table, one
    ``verdict <metric>: <verdict>`` line per metric, then the failure counts."""
    width = max([22] + [len(spec["name"]) for spec in metrics])
    lines = [f"{'metric':<{width}} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} "
             f"{'ratio':>6} {'won':>6} {'gap>IQR':>7}"]
    verdicts = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        par = [p["metrics"][name]["value"] for p, _ in pairs]
        chg = [c["metrics"][name]["value"] for _, c in pairs]
        pq, cq = quartiles(par), quartiles(chg)
        won = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        gap = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        lines.append(f"{name:<{width}} {_fmt(pq):>32} {_fmt(cq):>32} {ratio:>6.3f} "
                     f"{f'{won}/{len(pairs)}':>6} {'yes' if gap > pq[2] - pq[0] else 'no':>7}")
        verdicts.append(f"verdict {name}: {verdict(spec, pq, gap, won, len(pairs))}")
    lines += verdicts
    for side, idx in (("parent", 0), ("change", 1)):
        failed = sum(pair[idx]["failed"] for pair in pairs)
        attempted = sum(pair[idx]["attempted"] for pair in pairs)
        lines.append(f"{side}: {failed} of {attempted} operations failed")
    return lines


def export_revision(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` under ``dest`` with ``git archive``."""
    archive = dest / "rev.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(archive), rev],
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree", filter="data")
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return last_json(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, help="perfbench workload name")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--first-seed", dest="first_seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true",
                        help="run both sides traced and compare the per-layer metrics")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        export_revision(args.parent, Path(tmp))
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            results = {side: run_once(trees[side], args.workload, seed, args.seconds, args.trace)
                       for side in order}
            pairs.append((results["parent"], results["change"]))
            print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): "
                  + ", ".join(f"{m['name']} {results['parent']['metrics'][m['name']]['value']:.4g}"
                              f" -> {results['change']['metrics'][m['name']]['value']:.4g}"
                              for m in metrics), flush=True)
    print(f"# {args.workload}: {args.parent} -> working tree, {args.pairs} pairs, "
          f"{args.seconds:g} s per run{', traced' if args.trace else ''}")
    print("\n".join(summarise(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
