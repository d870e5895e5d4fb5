"""The reference-run script (``tools/reference_run.py``) runs end to end."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "reference_run.py"
spec = importlib.util.spec_from_file_location("reference_run", SCRIPT)
reference_run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reference_run)


def test_prints_three_digests_and_two_metric_rows(capsys):
    assert reference_run.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    for line, name in zip(lines, reference_run.ARTIFACTS):
        assert re.fullmatch(rf"[0-9a-f]{{64}}  {re.escape(name)}", line)
    assert [row.split()[0] for row in lines[3:]] == ["train", "test"]
