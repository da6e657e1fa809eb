"""The names the sweep benchmark wraps must exist, so a renamed helper
fails here instead of silently dropping the benchmark's per-layer metrics."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from onebitsim import harness as hn
from onebitsim.protocols import Schedule

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.filterwarnings("ignore::onebitsim.protocols.ScheduleViolationWarning")
def test_every_benchmark_hook_installs_and_records():
    spans = _load_spans()
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
        # the 2-d coin engines must build and query their trees through the
        # module-level predict.cKDTree name that the benchmark wraps
        hn.run_sweep(
            replace(
                config,
                protocol="cls_noabstain",
                scenario_id="gauss_mix_2d",
                schedule=Schedule(0.5, 0.2),
                coin_mode="per_query",
            )
        )
        # predict.binom is bound on first use; the engine must still call it
        # through the module name the benchmark wraps
        hn.run_sweep(
            replace(
                config,
                protocol="reg_noabstain",
                scenario_id="sine_1d",
                n_grid=(20,),
                replications=1,
            )
        )
        recorded = {span.name for span in tracer.spans}
        assert {
            "predict", "harness.train", "predict.kdtree_build", "predict.kdtree_query",
            "predict.binom",
        } <= recorded
    finally:
        hooks.remove()
