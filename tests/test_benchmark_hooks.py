"""The names the sweep benchmark wraps and sets up with must exist, so a
renamed helper fails here instead of silently dropping the benchmark's
per-layer metrics or failing its set-up."""

import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from onebitsim import cli
from onebitsim import harness as hn
from onebitsim.protocols import Schedule

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """The benchmark's ``<name>.py``, loaded by path: its directory is no package."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_benchmark_setup_reads_each_workload_config(tmp_path, workload):
    # set-up parses and validates the generated config through cli's names
    w = WORKLOADS[workload]
    config = tmp_path / "config.ini"
    config.write_text(w.config_text(0))
    module, setup_s = _load("child")._setup(w.command, str(config))
    assert module is cli and setup_s >= 0.0


@pytest.mark.filterwarnings("ignore::onebitsim.protocols.ScheduleViolationWarning")
def test_every_benchmark_hook_installs_and_records():
    spans = _load("spans")
    tracer = spans.Tracer()
    hooks = spans.install(tracer)
    try:
        assert hooks.absent == []
        config = hn.ExperimentConfig(
            protocol="cls_abstain",
            scenario_id="gauss_mix_1d",
            schedule=Schedule(0.5, 0.3),
            n_grid=(20, 40),
            replications=2,
            test_points=10,
        )
        hn.run_sweep(config)
        # the 2-d counts and the per-query guesser crowd; no engine builds a
        # KD-tree, but the benchmark's hook still installs on predict.cKDTree
        hn.run_sweep(
            replace(
                config,
                protocol="cls_noabstain",
                scenario_id="gauss_mix_2d",
                schedule=Schedule(0.5, 0.2),
                coin_mode="per_query",
            )
        )
        # the regression engine must call predict.binom through the module
        # name the benchmark wraps
        hn.run_sweep(
            replace(
                config,
                protocol="reg_noabstain",
                scenario_id="sine_1d",
                n_grid=(20,),
                replications=1,
            )
        )
        # every layer these sweeps run records its span, so no refactor
        # silently drops one of the benchmark's per-layer metrics
        recorded = {span.name for span in tracer.spans}
        assert {
            "harness.eval", "harness.replication", "harness.train", "predict",
            "predict.binom", "scenarios.sample", "seeding.coins",
        } <= recorded
        # a traced run's result line carries every layer metric, and strict
        # JSON takes it: no metric is NaN or infinite
        metrics = spans.layer_metrics(tracer, hooks.absent)
        assert set(metrics) == set(spans.LAYER_METRICS)
        json.dumps(metrics, allow_nan=False)
    finally:
        hooks.remove()


# the span each benchmark hook records, one name per layer metric's source
SPAN_NAMES = {
    "seeding.coins", "scenarios.sample", "scenarios.cond_sample", "predict",
    "predict.binom", "harness.train", "harness.eval", "harness.replication",
    "harness.pool", "cli.config", "cli.write",
}

_CLI_RUNS = (
    # the demo's two-arm predict_batch call, whose output the predict hook reads
    ("demo-impossibility", "n_grid = 200, 400\nreplications = 2\ntest_points = 50\n", 1),
    # the specialists sampler, whose untrainable mask the hook reads
    ("sweep", "protocol = specialists\nscenario = cityscape_2d\nn_grid = 100, 200\n", 1),
    # the pool around the replications
    ("sweep", "protocol = cls_abstain\nscenario = gauss_mix_1d\nn_grid = 100, 200\n", 2),
)


@pytest.mark.filterwarnings("ignore::onebitsim.protocols.ScheduleViolationWarning")
def test_every_benchmark_hook_records_through_the_cli(tmp_path, monkeypatch):
    # the CLI paths the benchmark's workloads trace: each hook records its
    # span and the result line's metrics are strict JSON
    monkeypatch.setattr(hn, "usable_cpus", lambda: 2)  # --jobs 2 starts a pool
    spans = _load("spans")
    tracer = spans.Tracer()
    hooks = spans.install(tracer)
    try:
        assert hooks.absent == []
        for i, (command, keys, jobs) in enumerate(_CLI_RUNS):
            config = tmp_path / f"run{i}.ini"
            config.write_text(f"[{command}]\n{keys}")
            out = tmp_path / f"out{i}"
            argv = [command, "--config", str(config), "--out", str(out), "--jobs", str(jobs)]
            assert cli.main(argv) == 0
        assert {span.name for span in tracer.spans} == SPAN_NAMES
        metrics = spans.layer_metrics(tracer, hooks.absent)
        assert set(metrics) == set(spans.LAYER_METRICS)
        json.dumps(metrics, allow_nan=False)
    finally:
        hooks.remove()


def test_installing_the_hooks_loads_no_scipy_submodule():
    # a traced run (``--trace 1``) measures the program that an untraced one
    # runs: the KD-tree hook wraps predict.cKDTree without importing
    # scipy.spatial, and so on for every hook
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, str(PERFBENCH), os.environ.get("PYTHONPATH")) if p
    )}
    probe = (
        "import sys, onebitsim.cli, spans; before = set(sys.modules); "
        "spans.install(spans.Tracer()); "
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('scipy')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"
