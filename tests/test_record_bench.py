"""``tools/record_bench.py`` parses and aggregates the runner's output.

Canned ``perfbench/run.py`` output only: no benchmark is started here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"
_SPEC = importlib.util.spec_from_file_location("record_bench", _PATH)
record_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record_bench)


def _env(seed, src="0123456789abcdef"):
    return (
        "env: python 3.11.7, numpy 2.4.6, scipy 1.17.1, nproc 2, "
        f"rev none (not a git checkout), src {src}, seed {seed}, jobs 1"
    )


def _result(wall, setup, rss):
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": metrics})


def _output(seed, walls, src="0123456789abcdef", last=None):
    """One ``--workload all`` call's standard output over workloads a and b."""
    lines = []
    for name, wall in zip("ab", walls):
        lines += [
            f"workload {name}: why {name}",
            _env(seed, src),
            "setup: 0.100, 0.110 s",
            f"sweep 1/1 sweep: wall {wall:.3f} s, rss 50.0 MB, csv sha256 -, checks ok",
            f"  wall_s {wall}",
            last if last is not None else _result(wall, 0.1 + seed, 50.0 + seed),
        ]
    return "\n".join(lines) + "\n"


def _traced_line(names):
    metrics = {name: {"value": 12.0, "unit": "count"} for name in sorted(names)}
    return json.dumps({"correct": True, "attempted": 4, "failed": 0, "metrics": metrics})


def test_aggregation_of_canned_result_lines():
    walls = [(1.0, 5.0), (3.0, 6.0), (2.0, 4.0), (4.0, 8.0)]
    untraced = [record_bench.parse_runner_output(_output(s, w)) for s, w in enumerate(walls)]
    traced_line = _traced_line(record_bench.PER_LAYER)
    traced = record_bench.parse_runner_output(_output(0, (9.0, 9.0), last=traced_line))
    record = record_bench.aggregate(untraced, traced)
    assert "rev" not in record and record["src"] == "0123456789abcdef"
    assert record["machine"]["nproc"] == "2" and record["machine"]["numpy"] == "2.4.6"
    assert list(record["workloads"]) == ["a", "b"]
    a = record["workloads"]["a"]
    assert [run["wall_s"] for run in a["runs"]] == [1.0, 3.0, 2.0, 4.0]
    assert [run["seed"] for run in a["runs"]] == [0, 1, 2, 3]
    # statistics.quantiles' exclusive method on 1, 2, 3, 4: 1.25 and 3.75
    assert a["summary"]["wall_s"] == {"median": 2.5, "quartiles": [1.25, 3.75], "runs": 4}
    assert a["summary"]["setup_s"]["median"] == pytest.approx(1.6)
    assert record["workloads"]["b"]["summary"]["wall_s"]["median"] == 5.5
    assert len(record_bench.PER_LAYER) == 26 and set(a["traced"]) == record_bench.PER_LAYER
    assert a["traced"]["predict.pairs"] == {"value": 12.0, "unit": "count"}
    one = record_bench.aggregate(untraced[:1], traced)["workloads"]["a"]["summary"]["wall_s"]
    assert one == {"median": 1.0, "quartiles": [1.0, 1.0], "runs": 1}


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_a_bare_constant_in_a_result_line_is_refused(constant):
    line = _result(1.0, 0.1, 50.0).replace("1.0", constant, 1)
    assert constant in line
    with pytest.raises(ValueError, match=f"bare {constant}"):
        record_bench.parse_runner_output(_output(0, (1.0, 1.0), last=line))


@pytest.mark.parametrize("last", [
    "sweep 1/1 sweep: wall 1.000 s, rss 50.0 MB, csv sha256 -, checks ok",
    json.dumps({"correct": True, "metrics": {}}),
], ids=["a sweep line", "a partial result"])
def test_a_workload_that_does_not_end_in_a_result_is_refused(last):
    with pytest.raises(ValueError):
        record_bench.parse_runner_output(_output(0, (1.0, 1.0), last=last))


def test_a_run_whose_checks_failed_is_refused():
    line = _result(1.0, 0.1, 50.0).replace('"correct": true', '"correct": false')
    with pytest.raises(ValueError, match="failed their checks"):
        record_bench.parse_runner_output(_output(0, (1.0, 1.0), last=line))


def test_a_run_with_a_failed_sweep_is_refused():
    # the runner counts a sweep that errors or times out in `failed`
    # without setting `correct` false
    line = _result(1.0, 0.1, 50.0).replace('"failed": 0', '"failed": 3')
    with pytest.raises(ValueError, match="3 sweep cells failed"):
        record_bench.parse_runner_output(_output(0, (1.0, 1.0), last=line))


def test_a_traced_run_without_every_per_layer_metric_is_refused():
    # the runner leaves out the metrics of absent layer hooks
    untraced = [record_bench.parse_runner_output(_output(0, (1.0, 1.0)))]
    line = _traced_line(record_bench.PER_LAYER - {"seeding.coin_s"})
    traced = record_bench.parse_runner_output(_output(0, (1.0, 1.0), last=line))
    with pytest.raises(ValueError, match="lack \\['seeding.coin_s'\\]"):
        record_bench.aggregate(untraced, traced)


def test_runs_of_two_trees_are_refused():
    runs = [record_bench.parse_runner_output(_output(0, (1.0, 1.0), src=s)) for s in "xy"]
    with pytest.raises(ValueError, match="more than one tree"):
        record_bench.aggregate(runs[:1], runs[1])
