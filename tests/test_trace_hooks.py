"""The benchmark's per-layer tracer names real dfsn functions.

``perfbench/tracer.py`` rebinds dfsn functions by name from outside the
package, so renaming one of them breaks the traced benchmark run
(``perfbench/run.py --trace 1``) with an AttributeError. These tests load the
tracer by path and check every name it relies on.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import dfsn.autodiff
import dfsn.cli  # noqa: F401  (imports every module the tracer wraps)
import dfsn.data
import dfsn.model
import dfsn.text

from oracles import project

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("func", sorted(tracer.OP_FUNCS))
def test_op_funcs_exist_in_autodiff(func):
    assert callable(getattr(dfsn.autodiff, func))


@pytest.mark.parametrize("module, func", tracer.SPAN_FUNCS)
def test_span_funcs_exist(module, func):
    assert callable(getattr(importlib.import_module(module), func))


def test_make_node_binds_the_wrapped_signature():
    sig = inspect.signature(dfsn.autodiff._make_node)
    assert list(sig.parameters) == ["values", "op", "parents", "backward_fn", "out_dtype"]
    assert sig.parameters["out_dtype"].default is None
    sig.bind("values", "op", "parents", "backward_fn")
    sig.bind("values", "op", "parents", "backward_fn", "out_dtype")


def test_install_then_uninstall_restores_every_binding():
    before = {name: getattr(dfsn.autodiff, name) for name in tracer.OP_FUNCS}
    t = tracer.Tracer()
    t.install()
    try:
        t.phase = "train"
        x = dfsn.autodiff.Tensor([-1.0, 2.0], requires_grad=True)
        dfsn.autodiff.backward(project(dfsn.autodiff.relu(x)), [x])
        assert t.op_calls[("train", "relu")] == 1
        assert t.op_bwd[("train", "relu")] > 0.0
    finally:
        t.uninstall()
    assert {name: getattr(dfsn.autodiff, name) for name in tracer.OP_FUNCS} == before


def test_model_holds_the_text_span_functions_by_name():
    # the tracer rebinds by identity in module namespaces: an import inside a
    # function would bypass the wrapper and leave the span silently empty
    assert dfsn.model.encode_sentence_matrix is dfsn.text.encode_sentence_matrix


def test_batch_loss_records_a_text_span():
    config = dfsn.model.FusionConfig(
        image=None, hidden1=4, hidden2=3,
        text=dfsn.text.TextConfig(dim=3, max_len=8, widths=(2, 3), filters_per_width=2))
    params = dfsn.model.init_model(config, seed=0)
    table = dfsn.text.EmbeddingTable(dim=3)
    batch = [dfsn.model.ModelSample(image=None, tokens=["a", "tiny", "sentence"], label=1),
             dfsn.model.ModelSample(image=None, tokens=["one"], label=0)]
    t = tracer.Tracer()
    t.install()
    try:
        t.phase = "train"
        dfsn.model.batch_loss(batch, params, table)
    finally:
        t.uninstall()
    names = [span[0] for span in t.spans]
    assert names.count("model.batch_loss") == 1
    assert names.count("text.encode_sentence_matrix") == 1


def test_traced_training_counts_one_step_per_update(tmp_path):
    # the tracer ends a step at each train.apply_gradients call
    config = dfsn.model.fusion_preset("tiny")
    table = dfsn.text.EmbeddingTable(dim=config.text.dim, fallback_seed=0)
    manifest = dfsn.data.gen_synthetic(10, seed=3, out_dir=tmp_path)
    samples = dfsn.data.materialize(manifest, tmp_path, config, table)
    train_module = importlib.import_module("dfsn.train")  # the package's `train` is the function
    cfg = train_module.TrainConfig(batch_size=4, epochs=2, eval_every=0)
    t = tracer.Tracer()
    t.install()
    try:
        t.phase = "train"
        _, history = train_module.train(dfsn.model.init_model(config, seed=0), samples, cfg, table)
    finally:
        t.uninstall()
    assert len(history.steps) == 6  # 3 batches of at most 4 samples per epoch
    assert t.counts()["steps"] == len(history.steps)
    assert len(t.step_ms()) == len(history.steps)
