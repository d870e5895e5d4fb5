"""The A/B pair script's parsing and per-metric summary (``tools/bench_pairs.py``)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "speed", "better": "higher"}, {"name": "ms", "better": "lower"}]


def result(speed, ms, failed=0):
    return {"attempted": 10, "failed": failed,
            "metrics": {"speed": {"value": speed}, "ms": {"value": ms}}}


def test_last_json_reads_the_final_line():
    out = "# header\nenv {\"a\": 1}\n" + json.dumps(result(1.0, 2.0)) + "\n\n"
    assert bench_pairs.last_json(out) == result(1.0, 2.0)


def test_last_json_rejects_empty_output():
    with pytest.raises(ValueError):
        bench_pairs.last_json("\n")


def test_quartiles():
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_summary_counts_wins_by_direction_and_failures():
    pairs = [(result(10, 5), result(12, 4)), (result(10, 5), result(9, 6, failed=2)),
             (result(11, 5), result(13, 4))]
    lines = bench_pairs.summarise(pairs, METRICS)
    speed = next(line for line in lines if line.startswith("speed"))
    ms = next(line for line in lines if line.startswith("ms"))
    assert " 2/3 " in speed and " 2/3 " in ms
    # medians 10 -> 12 against a parent IQR of 0.5: the gap exceeds it
    assert speed.split()[-1] == "yes"
    assert lines[-2] == "parent: 0 of 30 operations failed"
    assert lines[-1] == "change: 2 of 30 operations failed"


def test_summary_over_per_layer_names_keeps_columns_aligned():
    # --trace compares BENCHMARK.json's per-layer metrics, whose names are
    # longer than the end-to-end ones
    specs = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text())["per_layer"]

    def traced(scale):
        return {"attempted": 5, "failed": 0,
                "metrics": {s["name"]: {"value": scale * (i + 1)} for i, s in enumerate(specs)}}

    pairs = [(traced(1.0), traced(0.5)), (traced(1.1), traced(0.6)), (traced(0.9), traced(1.2))]
    lines = bench_pairs.summarise(pairs, specs)
    rows = lines[1:1 + len(specs)]
    assert [row.split()[0] for row in rows] == [s["name"] for s in specs]
    # every metric is "lower is better": the change won the first two pairs
    assert all(row.split()[-2] == "2/3" for row in rows)
    # the name column fits the longest name, so the columns line up
    longest = max(len(s["name"]) for s in specs)
    assert len({len(row) for row in rows} | {len(lines[0])}) == 1
    assert all(row[longest] == " " for row in rows)


def verdicts(pairs, metrics):
    lines = bench_pairs.summarise(pairs, metrics)
    return dict(line.removeprefix("verdict ").split(": ") for line in lines
                if line.startswith("verdict "))


BOUNDED = [{"name": "speed", "better": "higher", "bound": 0.25},
           {"name": "ms", "better": "lower", "bound": 0.25}]


def test_verdict_gain_needs_nine_tenths_of_the_pairs_and_a_gap_over_the_iqr():
    # parent speed 10..11 (IQR 0.5), change 12 in all ten pairs; ms wins 9/10
    # pairs by a gap over its IQR
    pairs = [(result(10 + (i % 3) / 2, 5 + (i % 2) / 10), result(12, 5.2 if i == 0 else 4))
             for i in range(10)]
    assert verdicts(pairs, BOUNDED) == {"speed": "gain", "ms": "gain"}
    # 8 of 10 wins is not enough, though the medians are as far apart
    pairs[0], pairs[1] = (result(13, 3), result(12, 4)), (result(13, 3), result(12, 4))
    assert verdicts(pairs, BOUNDED) == {"speed": "unresolved", "ms": "unresolved"}


def test_verdict_worse_beyond_the_bound():
    # speed 10 -> 7 and ms 4 -> 5.2: both worse by 30%, past the 0.25 bound
    pairs = [(result(10, 4), result(7, 5.2)) for _ in range(5)]
    assert verdicts(pairs, BOUNDED) == {"speed": "worse", "ms": "worse"}
    # a metric without a bound is never worse
    assert verdicts(pairs, METRICS) == {"speed": "unresolved", "ms": "unresolved"}


def test_verdict_unresolved_inside_the_bound():
    # 20% worse is inside the bound; a win of every pair inside the parent's
    # own spread is no gain
    pairs = [(result(10 + i, 4), result(8 + i, 4.8)) for i in range(5)]
    assert verdicts(pairs, BOUNDED) == {"speed": "unresolved", "ms": "unresolved"}
    pairs = [(result(10 + 2 * i, 4), result(10.5 + 2 * i, 4)) for i in range(10)]
    assert verdicts(pairs, BOUNDED)["speed"] == "unresolved"


def test_verdict_lines_sit_between_the_table_and_the_failure_counts():
    pairs = [(result(10, 5), result(12, 4))]
    lines = bench_pairs.summarise(pairs, BOUNDED)
    assert lines[3:5] == ["verdict speed: gain", "verdict ms: gain"]
    assert lines[5].startswith("parent: ") and lines[6].startswith("change: ")
