"""Per-layer tracing of dfsn from outside the package.

The tracer rebinds functions wherever a ``dfsn`` module holds them, so the
package itself is never edited:

* autodiff ops (``conv2d``, ``tanh_op``, ``_reshape``, ...) are rebound in
  ``dfsn.autodiff``, ``dfsn.image``, ``dfsn.text`` and ``dfsn.model``, which
  import them by name; forward time is counted exclusive of nested ops;
* ``dfsn.autodiff._make_node`` is wrapped so that every node's backward
  closure is timed under its op name, and nodes are counted per phase;
* the public layer functions in ``SPAN_FUNCS`` record spans (name, start,
  end, parent, phase) that stay in memory until ``write_spans``.

Everything is recorded under the phase the caller sets on ``Tracer.phase``
("setup", "train", "eval" or "predict"). ``uninstall`` restores every
binding it replaced.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# function name in dfsn.autodiff -> op name that function gives its nodes
OP_FUNCS = {
    "conv2d": "conv2d", "lrn": "lrn", "maxpool2d": "maxpool2d", "relu": "relu",
    "matmul": "matmul", "bias_add": "bias_add", "tanh_op": "tanh",
    "triple_pool_columns": "triple_pool", "concat": "concat", "_reshape": "reshape",
    "softmax_cross_entropy": "softmax_cross_entropy", "_mean": "mean",
}

# ops reported one by one in the per-layer metrics; the rest count as "other"
REPORTED_OPS = ("conv2d", "lrn", "maxpool2d", "relu", "matmul", "bias_add", "tanh",
                "triple_pool", "concat", "reshape", "softmax_cross_entropy")

# (module, function) pairs that record a span per call. "dfsn.train" is
# looked up in sys.modules: the package re-exports the function ``train``
# under the same attribute name as the module.
SPAN_FUNCS = (
    ("dfsn.image", "encode_image"), ("dfsn.image", "preprocess_image"),
    ("dfsn.text", "embed_sentence"), ("dfsn.text", "encode_sentence_matrix"),
    ("dfsn.model", "batch_loss"), ("dfsn.model", "head_logits"), ("dfsn.model", "predict"),
    ("dfsn.train", "train"), ("dfsn.train", "apply_gradients"), ("dfsn.train", "evaluate"),
    ("dfsn.autodiff", "backward"),
    ("dfsn.data", "materialize"), ("dfsn.data", "save_checkpoint"),
    ("dfsn.data", "load_checkpoint"), ("dfsn.data", "load_ppm"),
    ("dfsn.cli", "main"),
)

# per-call span means reported as "<module>.<function>.ms"
PER_CALL_SPANS = ("image.encode_image", "image.preprocess_image", "text.embed_sentence",
                  "text.encode_sentence_matrix", "model.batch_loss", "model.head_logits",
                  "model.predict", "train.apply_gradients", "train.evaluate",
                  "data.save_checkpoint", "data.load_checkpoint", "data.load_ppm")


def per_layer_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    specs = []
    for op in REPORTED_OPS:
        specs += [(f"autodiff.{op}.calls", "count/step"), (f"autodiff.{op}.fwd_ms", "ms/step"),
                  (f"autodiff.{op}.bwd_ms", "ms/step")]
    specs += [("autodiff.backward.self_ms", "ms/step"),
              ("autodiff.graph_nodes_per_step", "count"),
              ("autodiff.infer_graph_nodes", "count/sample"),
              ("autodiff.infer_nodes_created", "count/sample")]
    specs += [(f"{name}.ms", "ms") for name in PER_CALL_SPANS]
    specs += [("train.step_ms_p50", "ms"), ("train.step_ms_p90", "ms"),
              ("data.materialize.ms_per_sample", "ms"), ("data.materialize.bytes", "bytes"),
              ("cli.main.self_ms", "ms"), ("trace.overhead_frac", "fraction")]
    return specs


def _span_name(module: str, func: str) -> str:
    return f"{module.split('.', 1)[1]}.{func}"


class Tracer:
    def __init__(self):
        self.phase = "setup"
        # [name, start, end, parent index, phase, backward-closure seconds inside]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._child_time = [0.0]  # stack of nested-op time, for exclusive forward time
        self.op_calls = defaultdict(int)   # (phase, op) -> calls
        self.op_fwd = defaultdict(float)   # (phase, op) -> seconds, exclusive
        self.op_bwd = defaultdict(float)   # (phase, op) -> seconds in backward closures
        self.nodes = defaultdict(int)      # phase -> nodes created
        self.live_nodes = defaultdict(int)  # phase -> nodes created with a backward closure
        self._bwd_total = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        autodiff = sys.modules["dfsn.autodiff"]
        for func, op in OP_FUNCS.items():
            original = getattr(autodiff, func)
            self._rebind(original, self._wrap_op(original, op))
        original_make = autodiff._make_node
        self._rebind(original_make, self._wrap_make_node(original_make))
        for module, func in SPAN_FUNCS:
            original = getattr(sys.modules[module], func)
            self._rebind(original, self._wrap_span(original, _span_name(module, func)))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def _rebind(self, original, wrapped) -> None:
        for name, module in list(sys.modules.items()):
            if name != "dfsn" and not name.startswith("dfsn."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def _wrap_op(self, fn, op: str):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                nested = self._child_time.pop()
                self._child_time[-1] += dt
                key = (self.phase, op)
                self.op_fwd[key] += dt - nested
                self.op_calls[key] += 1
        return wrapped

    def _wrap_make_node(self, make_node):
        @functools.wraps(make_node)
        def wrapped(values, op, parents, backward_fn, out_dtype=None):
            key = (self.phase, op)

            def timed_backward(g):
                t0 = time.perf_counter()
                try:
                    return backward_fn(g)
                finally:
                    dt = time.perf_counter() - t0
                    self.op_bwd[key] += dt
                    self._bwd_total += dt

            out = make_node(values, op, parents, timed_backward, out_dtype)
            self.nodes[self.phase] += 1
            if out._backward_fn is not None:
                self.live_nodes[self.phase] += 1
            return out
        return wrapped

    def _wrap_span(self, fn, name: str):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.phase,
                               self._bwd_total])
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                span = self.spans[index]
                span[2] = time.perf_counter()
                span[5] = self._bwd_total - span[5]
        return wrapped

    # -- results ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON object per span: name, start/end in seconds, parent index, phase."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, phase, _) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "phase": phase}) + "\n")

    def _durations(self, name: str, phases=None) -> list[float]:
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and (phases is None or s[4] in phases)]

    def step_ms(self) -> list[float]:
        """Per training step: first batch_loss start to apply_gradients end."""
        steps, start = [], None
        for name, t0, t1, _, phase, _ in self.spans:
            if phase != "train":
                continue
            if name == "model.batch_loss" and start is None:
                start = t0
            elif name == "train.apply_gradients" and start is not None:
                steps.append((t1 - start) * 1e3)
                start = None
        return steps

    def op_table(self, phase: str, per: int) -> list[dict]:
        """Rows op, calls, fwd_ms, bwd_ms per ``per`` units of ``phase``, biggest first."""
        ops = {op for (p, op) in self.op_calls if p == phase}
        rows = [{"op": op,
                 "calls": self.op_calls[(phase, op)] / per,
                 "fwd_ms": self.op_fwd[(phase, op)] * 1e3 / per,
                 "bwd_ms": self.op_bwd[(phase, op)] * 1e3 / per} for op in ops]
        rows.sort(key=lambda r: r["fwd_ms"] + r["bwd_ms"], reverse=True)
        return rows

    def counts(self) -> dict:
        """Train steps and inference samples seen while tracing."""
        return {"steps": len(self._durations("train.apply_gradients", ("train",))),
                "infer_samples": len(self._durations("image.encode_image", ("eval", "predict")))}

    def per_layer_metrics(self, overhead_frac: float, materialized_samples: int,
                          materialized_bytes: int) -> dict[str, float]:
        n = self.counts()
        steps = max(n["steps"], 1)
        infer = max(n["infer_samples"], 1)
        out: dict[str, float] = {}
        for op in REPORTED_OPS:
            key = ("train", op)
            out[f"autodiff.{op}.calls"] = self.op_calls[key] / steps
            out[f"autodiff.{op}.fwd_ms"] = self.op_fwd[key] * 1e3 / steps
            out[f"autodiff.{op}.bwd_ms"] = self.op_bwd[key] * 1e3 / steps
        backward = sum(s[2] - s[1] - s[5] for s in self.spans
                       if s[0] == "autodiff.backward" and s[4] == "train")
        out["autodiff.backward.self_ms"] = backward * 1e3 / steps
        out["autodiff.graph_nodes_per_step"] = self.nodes["train"] / steps
        out["autodiff.infer_graph_nodes"] = (
            self.live_nodes["eval"] + self.live_nodes["predict"]) / infer
        out["autodiff.infer_nodes_created"] = (self.nodes["eval"] + self.nodes["predict"]) / infer
        for name in PER_CALL_SPANS:
            durations = self._durations(name)
            out[f"{name}.ms"] = 1e3 * sum(durations) / len(durations) if durations else 0.0
        steps_ms = self.step_ms()
        out["train.step_ms_p50"] = statistics.median(steps_ms) if steps_ms else 0.0
        out["train.step_ms_p90"] = percentile(steps_ms, 90) if steps_ms else 0.0
        out["data.materialize.ms_per_sample"] = (
            1e3 * sum(self._durations("data.materialize")) / max(materialized_samples, 1))
        out["data.materialize.bytes"] = float(materialized_bytes)
        out["cli.main.self_ms"] = self._cli_self_ms()
        out["trace.overhead_frac"] = overhead_frac
        return out

    def _cli_self_ms(self) -> float:
        children = defaultdict(float)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                children[parent] += t1 - t0
        selfs = [(s[2] - s[1] - children[i]) * 1e3
                 for i, s in enumerate(self.spans) if s[0] == "cli.main"]
        return sum(selfs) / len(selfs) if selfs else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``statistics.quantiles`` inclusive rule)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
