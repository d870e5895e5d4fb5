"""dfsn benchmark: one workload per process, every metric by name and unit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tiny-train --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 45        # every workload, one process each

A run is one user session at one model scale, repeated in rounds:

* inputs come from ``data.gen_synthetic`` with the run's seed (untimed);
* set-up (manifest load, length filter, holdout split, ``materialize``,
  ``init_model``) runs several times and reports its median as ``setup_s``;
* each round trains a fresh ``init_model`` with ``train.train`` (which writes
  the final checkpoint and history), evaluates the holdout with
  ``train.evaluate``, then serves a closed loop of one client over distinct
  (PPM, text) pairs: a warm request (``data.load_ppm`` + ``model.predict``
  with loaded parameters) and a cold one (``cli.main(["predict", ...])``
  in-process, which loads the checkpoint the round just wrote);
* one warm-up round runs before timing starts.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` is a separate run that installs ``tracer.Tracer`` and reports
the per-layer metrics plus per-op tables; its first round runs untraced as the
reference for the tracing overhead and for the history digest.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every output check
that fails, and every exception, counts one failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# Why each workload exists, and which optimisation it exercises or bypasses,
# is in perfbench/README.md. "epochs" is per train.train call; every round
# trains the same fixed schedule from the same init, so rounds are identical.
WORKLOADS = {
    # tiny preset, batch 50, lr 0.05, no decay: ~2250 op calls per batch of
    # 50 on arrays of a few hundred elements, so Python dispatch and graph
    # building set the time.
    "tiny-train": dict(preset="tiny", batch_size=50, lr=0.05, n_fit=400, holdout=0.2,
                       epochs=2, requests_per_round=20, n_pool=600),
    # full preset (224 px, 96/256/384 channels) at batch 2: conv2d and lrn
    # dominate, materialize holds 224-px images and each round writes a
    # 26 MB checkpoint. lr stays at the paper's 1e-4.
    "full-train": dict(preset="full", batch_size=2, lr=1e-4, n_fit=15, holdout=0.2,
                       epochs=1, requests_per_round=10, n_pool=200),
}

# A toy scale for the benchmark's own smoke test; not a workload.
TOY = {
    "tiny-train": dict(n_fit=40, epochs=1, requests_per_round=3, n_pool=20),
    "full-train": dict(n_fit=5, epochs=1, requests_per_round=2, n_pool=8),
}

END_TO_END = (
    ("setup_s", "s"),
    ("train_samples_per_s", "samples/s"),
    ("eval_samples_per_s", "samples/s"),
    ("predict_ms_p50", "ms"),
    ("predict_ms_p90", "ms"),
    ("predict_cold_ms_p50", "ms"),
    ("predict_cold_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
)

SETUP_REPEATS = 5
GEN_OVERSAMPLE = 2  # generated samples per sample used, so every length is on hand
GOLDEN = 0.6180339887498949
MIN_ROUNDS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SUM_TOL = 1e-9      # warm probabilities are float64 softmax outputs
PRINTED_TOL = 1e-3  # the CLI prints probabilities with three decimals


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> dict:
    """Keep BLAS/OpenMP pools at most nproc wide; return the settings in effect."""
    limit = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)
    return {var: os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ}


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib_path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def cpu_snapshot() -> tuple[float, float, int, int]:
    """Wall clock, this process's CPU time, and the machine's steal and total jiffies."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except OSError:
        fields = []
    steal = fields[7] if len(fields) > 7 else 0
    return time.perf_counter(), time.process_time(), steal, sum(fields)


def cpu_load_since(start: tuple[float, float, int, int]) -> dict:
    """How much CPU the measured part got: a run that shared its cores shows
    less process CPU per wall second, or steal time taken by the hypervisor."""
    wall, cpu, steal, total = cpu_snapshot()
    return {"process_cpu_per_wall": round((cpu - start[1]) / (wall - start[0]), 4),
            "machine_steal_frac": round((steal - start[2]) / max(total - start[3], 1), 4)}


def environment(np, thread_env: dict) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "thread_env": thread_env,
    }


def length_stats(lengths: list[int]) -> dict:
    """Distribution of token counts, with the share of long sentences."""
    if not lengths:
        return {"n": 0}
    q = statistics.quantiles(lengths, n=10, method="inclusive") if len(lengths) > 1 \
        else [lengths[0]] * 9
    return {"n": len(lengths), "min": min(lengths), "p10": q[0], "p50": q[4], "p90": q[8],
            "max": max(lengths),
            "share_ge_75_tokens": sum(n >= 75 for n in lengths) / len(lengths)}


class Session:
    """One workload run: generated inputs, set-up, and measured rounds."""

    def __init__(self, spec: dict, seed: int, work: Path):
        import numpy as np
        from dfsn import cli, data, model
        from dfsn.text import EmbeddingTable, tokenize

        self.np, self.data, self.model, self.cli = np, data, model, cli
        self.train_mod = sys.modules["dfsn.train"]
        self.EmbeddingTable, self.tokenize = EmbeddingTable, tokenize
        self.spec, self.seed, self.work = spec, seed, work
        self.config = model.fusion_preset(spec["preset"])
        # warm requests keep one table; the CLI builds its own per request
        self.warm_table = EmbeddingTable(self.config.text.dim, fallback_seed=seed)
        self.train_cfg = self.train_mod.TrainConfig(
            batch_size=spec["batch_size"], initial_lr=spec["lr"], decay_every=10 ** 9,
            epochs=spec["epochs"], seed=seed, eval_every=0)
        self.run_dir = work / "run"
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.ref_digest = None
        self.heldout_acc = None
        self.pairs_used: list = []
        self._next_pair = 0
        self.reset_samples()

    def reset_samples(self) -> None:
        self.train_s, self.eval_s, self.predict_ms, self.cold_ms = [], [], [], []

    # -- bookkeeping -----------------------------------------------------------

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def attempt(self, label: str, fn, *args):
        """Run one operation; an exception or a failed check counts as failed."""
        self.attempted += 1
        try:
            problem = fn(*args)
        except Exception as exc:  # an operation that raises is a failed operation
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            self.failures[label] = self.failures.get(label, 0) + 1
            if self.failures[label] <= 3:
                print(f"check failed [{label}]: {problem}", file=sys.stderr)

    # -- inputs and set-up -----------------------------------------------------

    def generate(self) -> None:
        """Write the synthetic data set and pick the fitting set and the request
        pool from it by token length. Untimed.

        Run time grows with sentence length, so a seed that drew shorter texts
        would read faster. Both sets therefore take their lengths from one
        fixed low-discrepancy sequence over the generator's range: every seed
        gets the same length mix, and any prefix of the requests covers the
        whole range. Only the words, images and labels change with the seed.
        """
        data = self.data
        spec = self.spec
        wanted = spec["n_fit"] + spec["n_pool"]
        manifest = data.gen_synthetic(GEN_OVERSAMPLE * wanted, seed=self.seed,
                                      out_dir=self.work)
        by_length: dict[int, list] = {}
        for sample in manifest.samples:
            by_length.setdefault(len(self.tokenize(sample.text)), []).append(sample)
        rng = self.np.random.default_rng(self.seed)
        for bucket in by_length.values():
            rng.shuffle(bucket)
        lo, hi = data.MIN_TOKENS, data.MAX_TOKENS
        picked = []
        for i in range(wanted):
            target = lo + int(((i + 1) * GOLDEN) % 1.0 * (hi - lo + 1))
            length = min((n for n, bucket in by_length.items() if bucket),
                         key=lambda n: (abs(n - target), n))
            picked.append(by_length[length].pop())
        self.pool = picked[spec["n_fit"]:]
        self.manifest_path = self.work / "manifest.jsonl"
        data.save_manifest(data.Manifest(samples=picked[:spec["n_fit"]]), self.manifest_path)

    def setup_once(self) -> float:
        data, model = self.data, self.model
        t0 = time.perf_counter()
        manifest = data.filter_by_length(data.load_manifest(self.manifest_path))
        fit, held = data.split_train_test(manifest, self.seed, 1.0 - self.spec["holdout"])
        table = self.EmbeddingTable(self.config.text.dim, fallback_seed=self.seed)
        train_samples = data.materialize(fit, self.work, self.config, table)
        eval_samples = data.materialize(held, self.work, self.config, table)
        model.init_model(self.config, seed=self.seed)
        elapsed = time.perf_counter() - t0
        self.train_samples, self.eval_samples, self.table = train_samples, eval_samples, table
        return elapsed

    def setup(self, repeats: int) -> list[float]:
        times = []
        for _ in range(repeats):
            self.attempted += 1
            times.append(self.setup_once())
        return times

    # -- one round -------------------------------------------------------------

    def round(self, record: bool) -> None:
        """Train a fresh model, evaluate it, serve requests with it."""
        params = self.model.init_model(self.config, seed=self.seed)
        self.phase("train")
        self.attempt("train", self._train, params, record)  # trains params in place
        self.phase("eval")
        self.attempt("evaluate", self._evaluate, params, record)
        self.phase("predict")
        for _ in range(self.spec["requests_per_round"]):
            sample = self.pool[self._next_pair % len(self.pool)]
            self._next_pair += 1
            self.pairs_used.append(sample)
            self.attempt("predict", self._predict, params, sample, record)
        self.phase("setup")

    def _train(self, params, record):
        t0 = time.perf_counter()
        _, history = self.train_mod.train(params, self.train_samples, self.train_cfg,
                                          table=self.table, out_dir=self.run_dir)
        elapsed = time.perf_counter() - t0
        losses = [s.loss for s in history.steps]
        if not losses or not all(math.isfinite(x) for x in losses):
            return f"non-finite or missing history loss: {losses[:5]}"
        digest = hashlib.sha256((self.run_dir / "history.csv").read_bytes()).hexdigest()
        if self.ref_digest is None:
            self.ref_digest = digest
        elif digest != self.ref_digest:
            return "history.csv differs from the untraced warm-up round of the same seed"
        if record:
            self.train_s.append(elapsed)
        return None

    def _evaluate(self, params, record):
        t0 = time.perf_counter()
        report = self.train_mod.evaluate(params, self.eval_samples, self.table)
        elapsed = time.perf_counter() - t0
        if report.total != len(self.eval_samples):
            return f"evaluate counted {report.total} of {len(self.eval_samples)} samples"
        self.heldout_acc = report.accuracy
        if record:
            self.eval_s.append(elapsed)
        return None

    def _predict(self, params, sample, record):
        image_path = str(self.work / sample.image_path)
        t0 = time.perf_counter()
        pixels = self.data.load_ppm(image_path)
        warm = self.model.predict(pixels, sample.text, params, self.warm_table)
        warm_ms = (time.perf_counter() - t0) * 1e3
        probs = (warm.p_neg, warm.p_pos)
        if not all(0.0 <= p <= 1.0 for p in probs) or abs(sum(probs) - 1.0) > SUM_TOL:
            return f"warm probabilities {probs} are not a distribution"
        if warm.label != (0 if warm.p_neg >= warm.p_pos else 1):
            return f"warm label {warm.label} disagrees with {probs}"

        argv = ["predict", "--checkpoint", str(self.run_dir / "checkpoint-final.dfsn"),
                "--image", image_path, "--text", sample.text, "--seed", str(self.seed)]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        cold_ms = (time.perf_counter() - t0) * 1e3
        if code != 0:
            return f"cli predict exited {code}: {err.getvalue().strip()}"
        fields = out.getvalue().split()
        try:
            label, p_neg, p_pos = int(fields[0]), float(fields[1]), float(fields[2])
        except (IndexError, ValueError):
            return f"cli predict printed {out.getvalue()!r}"
        if len(fields) != 3 or label != warm.label:
            return f"cli predict said {out.getvalue().strip()!r}, warm said {warm}"
        if abs(p_neg - warm.p_neg) > PRINTED_TOL or abs(p_pos - warm.p_pos) > PRINTED_TOL:
            return f"cli probabilities {p_neg} {p_pos} differ from warm {probs}"
        if record:
            self.predict_ms.append(warm_ms)
            self.cold_ms.append(cold_ms)
        return None

    # -- the run ---------------------------------------------------------------

    def rounds_until(self, deadline: float) -> int:
        n = 0
        while n < MIN_ROUNDS or time.perf_counter() < deadline:
            self.round(record=True)
            n += 1
        return n

    def inputs(self) -> dict:
        first = self.np.asarray(self.data.load_ppm(str(self.work / self.pool[0].image_path)))
        return {
            "preset": self.spec["preset"],
            "batch_size": self.spec["batch_size"],
            "train_samples": len(self.train_samples),
            "holdout_samples": len(self.eval_samples),
            "steps_per_train_call": self.spec["epochs"] * math.ceil(
                len(self.train_samples) / self.spec["batch_size"]),
            "requests": len(self.pairs_used),
            "distinct_requests": len({s.id for s in self.pairs_used}),
            "image_side_raw": int(first.shape[0]),
            "image_side_model": self.config.image.input_side,
            "materialize_bytes": self.materialized_bytes(),
            "tokens_train": length_stats([len(s.tokens) for s in self.train_samples]),
            "tokens_requests": length_stats(
                [len(self.tokenize(s.text)) for s in self.pairs_used]),
        }

    def materialized_bytes(self) -> int:
        return sum(s.image.nbytes for s in self.train_samples + self.eval_samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> int:
    thread_env = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import dfsn
    if Path(dfsn.__file__).resolve().parent != (SRC / "dfsn").resolve():
        print(f"error: imported dfsn from {dfsn.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    spec = dict(WORKLOADS[name])
    if toy:
        spec.update(TOY[name])
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        s = Session(spec, seed, work)
        s.generate()
        setup_times = s.setup(SETUP_REPEATS)
        s.round(record=False)  # warm-up: caches, lazy set-up, BLAS threads

        load_start = cpu_snapshot()
        if trace:
            s.reset_samples()
            s.round(record=True)
            reference = s.train_s[0]
            tr = tracing.Tracer()
            tr.install()
            s.tracer = tr
            try:
                s.setup(1)
                s.reset_samples()
                s.rounds_until(time.perf_counter() + seconds)
            finally:
                tr.uninstall()
                s.tracer = None
            overhead = statistics.median(s.train_s) / reference - 1.0
            per_layer = tr.per_layer_metrics(overhead, len(s.train_samples) + len(s.eval_samples),
                                             s.materialized_bytes())
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
            tr.write_spans(spans_path)
        else:
            s.reset_samples()
            rounds = s.rounds_until(time.perf_counter() + seconds)
        env = environment(np, thread_env)
        env.update(cpu_load_since(load_start))

        print(f"# dfsn benchmark  workload={name}  seed={seed}  seconds={seconds}  "
              f"trace={int(trace)}{'  toy' if toy else ''}")
        print("env " + json.dumps(env, sort_keys=True))
        inputs = s.inputs()
        print("inputs " + json.dumps(inputs, sort_keys=True))
        print(f"checks attempted={s.attempted} failed={s.failed} "
              f"error_rate={s.failed / max(s.attempted, 1):.4g} by_check={json.dumps(s.failures)}")
        print(f"heldout_acc = {s.heldout_acc} fraction  (holdout {len(s.eval_samples)} samples, "
              f"after {inputs['steps_per_train_call']} steps; equal in every round)")
        if trace:
            print_trace_report(tr, per_layer, spans_path)
            metrics = {n: {"value": per_layer[n], "unit": u} for n, u in tracing.per_layer_specs()}
        else:
            values = end_to_end(s, setup_times)
            counts = {"setup_s": len(setup_times), "train_samples_per_s": len(s.train_s),
                      "eval_samples_per_s": len(s.eval_s)}
            for n, u in END_TO_END:
                count = counts.get(n, len(s.predict_ms) if n.startswith("predict") else 1)
                print(f"{n} = {values[n]:.6g} {u}  (n={count}, rounds={rounds})")
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": s.failed == 0, "attempted": s.attempted, "failed": s.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def end_to_end(s: Session, setup_times: list[float]) -> dict[str, float]:
    percentile = tracing.percentile
    return {
        "setup_s": statistics.median(setup_times),
        "train_samples_per_s": statistics.median(
            s.spec["epochs"] * len(s.train_samples) / t for t in s.train_s),
        "eval_samples_per_s": statistics.median(len(s.eval_samples) / t for t in s.eval_s),
        "predict_ms_p50": statistics.median(s.predict_ms),
        "predict_ms_p90": percentile(s.predict_ms, 90),
        "predict_cold_ms_p50": statistics.median(s.cold_ms),
        "predict_cold_ms_p90": percentile(s.cold_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def print_trace_report(tr, per_layer: dict, spans_path: Path) -> None:
    n = tr.counts()
    rows = tr.op_table("train", max(n["steps"], 1))
    total = sum(r["fwd_ms"] + r["bwd_ms"] for r in rows) or 1.0
    print(f"\nper-op time per training step ({n['steps']} steps traced)")
    print("| op | calls/step | fwd ms | bwd ms | share |")
    print("|---|---|---|---|---|")
    for r in rows:
        print(f"| {r['op']} | {r['calls']:.0f} | {r['fwd_ms']:.2f} | {r['bwd_ms']:.2f} "
              f"| {(r['fwd_ms'] + r['bwd_ms']) / total:.1%} |")
    fwd = sum(r["fwd_ms"] for r in rows)
    bwd = sum(r["bwd_ms"] for r in rows)
    print(f"| all ops | {sum(r['calls'] for r in rows):.0f} | {fwd:.2f} | {bwd:.2f} | 100% |")
    print(f"backward traversal (self) {per_layer['autodiff.backward.self_ms']:.2f} ms/step; "
          f"step p50 {per_layer['train.step_ms_p50']:.2f} ms")
    infer = max(n["infer_samples"], 1)
    print(f"\nper-op forward time per inference sample ({n['infer_samples']} samples, "
          "evaluate + predict)")
    print("| op | calls/sample | fwd ms |")
    print("|---|---|---|")
    merged: dict[str, list[float]] = {}
    for phase in ("eval", "predict"):
        for r in tr.op_table(phase, 1):
            acc = merged.setdefault(r["op"], [0.0, 0.0])
            acc[0] += r["calls"]
            acc[1] += r["fwd_ms"]
    for op, (calls, fwd_ms) in sorted(merged.items(), key=lambda kv: -kv[1][1]):
        print(f"| {op} | {calls / infer:.0f} | {fwd_ms / infer:.2f} |")
    print(f"\nspans written to {spans_path.relative_to(ROOT)} ({len(tr.spans)} spans)\n")
    for name, unit in tracing.per_layer_specs():
        print(f"{name} = {per_layer[name]:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload; omitted, every workload runs in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "dfsn" / "__init__.py").is_file():
        print(f"error: no dfsn sources under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    if args.workload is not None:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.toy:
            cmd.append("--toy")
        status |= subprocess.run(cmd, check=False).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
