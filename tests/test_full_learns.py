"""The `full`-learns check (``tools/full_learns.py``) reads a history and applies
its bound. Its `full` run takes about a minute, so CI runs it as a step of its own."""

import importlib.util
from pathlib import Path

from dfsn.train import EpochRecord, MetricsReport, StepRecord, TrainHistory

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "full_learns.py"
spec = importlib.util.spec_from_file_location("full_learns", SCRIPT)
full_learns = importlib.util.module_from_spec(spec)
spec.loader.exec_module(full_learns)


def test_epoch_accuracies_reads_each_split_of_a_history():
    history = TrainHistory(
        steps=[StepRecord(step=0, lr=0.01, loss=0.7)],
        epochs=[EpochRecord(1, "train", MetricsReport(tp=1, fp=1, fn=1, tn=1)),
                EpochRecord(1, "test", MetricsReport(tp=0, fp=0, fn=2, tn=2)),
                EpochRecord(2, "train", MetricsReport(tp=2, fp=0, fn=0, tn=2)),
                EpochRecord(2, "test", MetricsReport(tp=2, fp=1, fn=0, tn=1))])
    assert full_learns.epoch_accuracies(history.to_csv()) == {"train": [0.5, 1.0],
                                                              "test": [0.5, 0.75]}


def test_exit_code_follows_the_bound(monkeypatch, capsys):
    monkeypatch.setattr(full_learns, "full_run",
                        lambda seed, epochs: {"train": [0.5, 0.9], "test": [0.5, 0.8]})
    assert full_learns.main() == 0
    monkeypatch.setattr(full_learns, "BOUND", 0.85)
    assert full_learns.main() == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "best test accuracy 0.800 FAILS the bound 0.85")
