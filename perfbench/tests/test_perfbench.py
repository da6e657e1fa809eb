"""Tests of the benchmark itself: span arithmetic, hook removal, absent
layers, output checks and failure accounting.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

from onebitsim import cli, harness, predict, scenarios, seeding  # noqa: E402


def test_self_time_subtracts_children_on_a_synthetic_tree():
    tree = [
        spans.Span(0, spans.REPLICATION, 0.0, 10.0, None, 0),
        spans.Span(1, "predict", 1.0, 9.0, 0, 0),
        spans.Span(2, "seeding.coins", 2.0, 4.0, 1, 0),
        spans.Span(3, "predict.kdtree_query", 5.0, 8.0, 1, 0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 2.0, 1: 3.0, 2: 2.0, 3: 3.0})


def test_tracer_links_parents_and_replications():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("cli.config"):
        pass
    with tracer.span(spans.REPLICATION):
        with tracer.span("predict"):
            with tracer.span("seeding.coins"):
                pass
    config, rep, pred, coins = tracer.spans
    assert config.parent is None and config.rep is None
    assert (pred.parent, coins.parent) == (rep.id, pred.id)
    assert pred.rep == coins.rep == rep.id
    assert (rep.duration, coins.duration) == (5.0, 1.0)


def test_self_time_counts_overlapping_children_once():
    parent = spans.Span(0, "p", 0.0, 10.0, None, None)
    kids = [
        spans.Span(1, "a", 1.0, 5.0, 0, None),
        spans.Span(2, "b", 3.0, 7.0, 0, None),
        spans.Span(3, "c", 9.0, 12.0, 0, None),  # runs past its parent
    ]
    assert spans.self_times([parent, *kids])[0] == pytest.approx(10.0 - 6.0 - 1.0)


def _originals():
    return {
        "coins": seeding.CoinSource.__dict__["uniform_array"],
        "sample": scenarios.Scenario.__dict__["sample"],
        "cond": scenarios.sample_conditional_batch,
        "predict": predict.predict_batch,
        "kdtree": predict.cKDTree,
        "binom": predict.binom,
        "train": harness.train_network,
        "eval": harness.evaluate_conditional_risk,
        "rep": harness._replication_sample,
        "pool": harness.ProcessPoolExecutor,
        "write": cli.write_csv,
    }


def test_hooks_are_removed_and_untraced_calls_reach_the_originals():
    before = _originals()
    tracer = spans.Tracer()
    hooks = spans.install(tracer)
    assert hooks.absent == []
    assert harness.predict_batch is not before["predict"]
    seeding.CoinSource(7).uniform_array([1, 2], [3, 4])
    assert tracer.counters["coins"] == 2 and tracer.spans[-1].name == "seeding.coins"
    hooks.remove()

    assert _originals() == before
    assert harness.predict_batch is predict.predict_batch is before["predict"]
    assert harness.sample_conditional_batch is before["cond"]
    recorded = len(tracer.spans)
    seeding.CoinSource(7).uniform_array([1, 2], [3, 4])
    assert len(tracer.spans) == recorded


def test_a_missing_layer_name_is_an_absent_metric(monkeypatch):
    monkeypatch.delattr(predict, "binom")
    tracer = spans.Tracer()
    hooks = spans.install(tracer)
    try:
        assert hooks.absent == ["predict.binom"]
        metrics = spans.layer_metrics(tracer, hooks.absent)
    finally:
        hooks.remove()
    assert "predict.binom_s" not in metrics
    assert "predict.self_s" not in metrics  # its children are incomplete
    assert "seeding.coin_s" in metrics and "harness.pools" in metrics


def _write_config(tmp_path, **keys):
    text = "[sweep]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return path


def test_traced_sweep_counts_layers_and_keeps_the_csv(tmp_path):
    config = _write_config(
        tmp_path, protocol="reg_abstain", scenario="sine_1d", n_grid="200, 400",
        r0=0.5, beta=0.3, c0=1.0, gamma=0.1, replications=3, test_points=50, seed=3,
    )
    argv = ["sweep", "--config", str(config), "--jobs", "1"]
    assert cli.main(argv + ["--out", str(tmp_path / "plain")]) == 0
    tracer = spans.Tracer()
    hooks = spans.install(tracer)
    try:
        assert cli.main(argv + ["--out", str(tmp_path / "traced")]) == 0
    finally:
        hooks.remove()
    plain = (tmp_path / "plain" / "sweep.csv").read_bytes()
    assert (tmp_path / "traced" / "sweep.csv").read_bytes() == plain
    metrics = spans.layer_metrics(tracer, hooks.absent)
    assert metrics["harness.reps"] == 6
    assert metrics["scenarios.rows"] == 6 * 50 + 3 * (200 + 400)
    assert metrics["seeding.coins"] > 0 and metrics["predict.pairs"] > 0
    assert metrics["cli.bytes_written"] == len(plain) + (
        tmp_path / "traced" / "sweep.json"
    ).stat().st_size
    assert set(metrics) == set(spans.LAYER_METRICS)


def test_output_checks_count_failed_cells(tmp_path):
    workload = Workload(
        name="tiny", why="test", command="sweep", stem="sweep", jobs=1,
        protocols=("reg_abstain",), n_grid=(200, 400),
    )
    header = ",".join(run.CSV_HEADER)
    row = "reg_abstain,sine_1d,1,{n},0.1,1.0,satisfies,3,50,0.02,{se},0.01,{ex},1.58,0.9,0.0,3"
    (tmp_path / "sweep.json").write_text("{}")

    def check(*rows, head=header):
        (tmp_path / "sweep.csv").write_text("\n".join([head, *rows]) + "\n")
        report = run.check_outputs(workload, tmp_path)
        return report, run.failed_cells(workload, {"error": None, **report})

    report, failed = check(row.format(n=200, se=0.01, ex=0.01), row.format(n=400, se=0.01, ex=0.0))
    assert (report["failures"], failed) == ([], 0)
    assert report["terminal_se"] == {"reg_abstain": 0.01}
    _, failed = check(row.format(n=200, se=0.01, ex=-0.05), row.format(n=400, se=0.01, ex=0.0))
    assert failed == 1
    report, failed = check(row.format(n=200, se=0.01, ex=0.01), head=header + ",extra")
    assert failed == 2 and "header" in report["failures"][0]
    _, failed = check(row.format(n=200, se=0.01, ex=0.01))
    assert failed == 2
    assert run.failed_cells(workload, {"error": "RuntimeError: boom"}) == 2


def test_a_failing_sweep_is_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    # The config parses, but the sweep raises: cls_abstain needs a
    # classification scenario.
    workload = Workload(
        name="raises", why="test", command="sweep", stem="sweep", jobs=1,
        protocols=("cls_abstain",), n_grid=(100, 200),
        keys={"protocol": "cls_abstain", "scenario": "sine_1d", "n_grid": "100, 200"},
    )
    result = run.run_workload(workload, seed=0, seconds=0.0, trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2
    assert "wall_s" not in result["metrics"]
    assert result["metrics"]["setup_s"]["value"] > 0  # measured although the sweep failed


def test_a_csv_digest_must_repeat_for_the_same_code_config_and_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    workload = WORKLOADS["specialists_2d"]
    sweeps = [{"digest": "a", "failures": []}, {"digest": "b", "failures": []}]
    run.check_digests(workload, 0, sweeps)
    assert sweeps[0]["failures"] == [] and "differs" in sweeps[1]["failures"][0]
    other = Workload(**{**workload.__dict__, "keys": {**workload.keys, "replications": 3}})
    fresh = [{"digest": "c", "failures": []}]
    run.check_digests(other, 0, fresh)  # another config has its own digest
    assert fresh[0]["failures"] == []


def test_benchmark_json_matches_the_metrics_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = {name: unit for name, (unit, _, _) in spans.LAYER_METRICS.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**layers, **run.TRACE_UNITS}
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
