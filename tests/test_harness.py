"""Training, risk estimation, sweeps, and the impossibility demo."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from onebitsim import harness as hn
from onebitsim.oracle import exact_conditional_error_at_x
from onebitsim.predict import predict_batch
from onebitsim.protocols import Schedule, ScheduleViolationWarning
from onebitsim.scenarios import bayes_classifier, make_scenario

PHI_MINUS_1 = 0.15865525393145707


def small_config(**overrides):
    base = dict(
        protocol="cls_abstain",
        scenario_id="gauss_mix_1d",
        schedule=Schedule(0.5, 0.3),
        n_grid=(50, 200),
        replications=3,
        test_points=200,
        seed=11,
    )
    base.update(overrides)
    return hn.ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError, match="^protocol: unknown 'morse'"):
        small_config(protocol="morse")
    with pytest.raises(ValueError, match="^n_grid: must be strictly increasing"):
        small_config(n_grid=(100, 100))
    with pytest.raises(ValueError, match="^n_grid: must hold positive integers"):
        small_config(n_grid=())
    with pytest.raises(ValueError, match="^replications: must be >= 1"):
        small_config(replications=0)
    with pytest.raises(ValueError, match="^coin_mode: unknown 'weekly'"):
        small_config(coin_mode="weekly")


@pytest.mark.parametrize(
    "field,value",
    [("r0", math.nan), ("beta", math.inf), ("c0", -math.inf), ("gamma", math.nan),
     ("clamp", math.inf)],
)
def test_schedule_rejects_non_finite_numbers(field, value):
    # a sweep with r0 = nan once ran to the end with every sensor abstaining
    kwargs = {"r0": 0.5, "beta": 0.3, field: value}
    with pytest.raises(ValueError, match=f"^{field}: expected a finite number"):
        Schedule(**kwargs)


@pytest.mark.parametrize(
    "field,value",
    [("family_c", math.nan), ("family_c", math.inf), ("replications", math.nan),
     ("test_points", math.inf), ("n_grid", (100, math.inf))],
)
def test_experiment_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(ValueError, match=f"^{field}: expected a finite number"):
        small_config(**{field: value})


@pytest.mark.parametrize(
    "protocol,scenario_id,params",
    [("cls_abstain", "gauss_mix_1d", {"sigma": math.nan}),
     ("reg_abstain", "sine_1d", {"noise": math.nan}),
     ("specialists", "cityscape_2d", {"spread": math.nan}),
     ("specialists", "cityscape_2d", {"center": (0.5, math.inf)})],
)
def test_scenario_params_reject_non_finite_numbers(protocol, scenario_id, params):
    # a gauss_mix_1d sweep with sigma = nan once ran and reported risk 0.0
    (name,) = params
    with pytest.raises(ValueError, match=rf"^scenario_params\.{name}: expected a finite"):
        hn.run_sweep(
            small_config(protocol=protocol, scenario_id=scenario_id, scenario_params=params)
        )


def test_train_network_deterministic():
    scen = make_scenario("gauss_mix_1d")
    a = hn.train_network("cls_abstain", scen, 500, Schedule(0.5, 0.3), seed=3)
    b = hn.train_network("cls_abstain", scen, 500, Schedule(0.5, 0.3), seed=3)
    np.testing.assert_array_equal(a.xs, b.xs)
    np.testing.assert_array_equal(a.ys, b.ys)
    c = hn.train_network("cls_abstain", scen, 500, Schedule(0.5, 0.3), seed=4)
    assert not np.array_equal(a.xs, c.xs)


def test_train_network_empty():
    scen = make_scenario("gauss_mix_1d")
    net = hn.train_network("cls_abstain", scen, 0, Schedule(0.5, 0.3), seed=1)
    assert net.n == 0 and net.xs.shape == (0, 1)


def test_train_network_task_mismatch():
    with pytest.raises(ValueError, match="classification"):
        hn.train_network(
            "cls_abstain", make_scenario("sine_1d"), 10, Schedule(0.5, 0.3), seed=1
        )
    with pytest.raises(ValueError, match="regression"):
        hn.train_network(
            "reg_abstain", make_scenario("gauss_mix_1d"), 10, Schedule(0.5, 0.3), seed=1
        )
    with pytest.raises(ValueError, match="unit box"):
        hn.train_network(
            "specialists", make_scenario("gauss_mix_2d"), 10, Schedule(0.5, 0.3), seed=1
        )


def test_train_network_schedule_warning():
    scen = make_scenario("gauss_mix_1d")
    with pytest.warns(ScheduleViolationWarning, match="sufficient"):
        hn.train_network("cls_abstain", scen, 10, Schedule(0.5, 1.5), seed=1)


def test_train_network_fixed_coins_only_when_needed():
    scen = make_scenario("gauss_mix_1d")
    sched = Schedule(0.5, 0.3)
    assert hn.train_network("cls_abstain", scen, 20, sched, seed=1).fixed_coins is None
    per_sensor = hn.train_network("cls_noabstain", scen, 20, sched, seed=1)
    assert per_sensor.fixed_coins.shape == (20,)
    assert set(np.unique(per_sensor.fixed_coins)) <= {0, 1}
    per_query = hn.train_network(
        "cls_noabstain", scen, 20, sched, seed=1, coin_mode="per_query"
    )
    assert per_query.fixed_coins is None


def test_specialists_training_is_in_region():
    scen = make_scenario("cityscape_2d")
    net = hn.train_network("specialists", scen, 10**4, Schedule(0.5, 0.2), seed=5)
    assert net.untrainable_count == 0
    gap = np.linalg.norm(net.xs - net.centers, axis=1)
    assert np.all(gap <= net.r_n)


def test_sensor_view_roundtrip():
    scen = make_scenario("gauss_mix_1d")
    net = hn.train_network("cls_noabstain", scen, 5, Schedule(0.5, 0.3), seed=2)
    s = net.sensor(3)
    np.testing.assert_array_equal(s.datum.x, net.xs[3])
    assert s.datum.y == net.ys[3]
    assert s.fixed_coin == net.fixed_coins[3]


def test_evaluate_risk_of_bayes_predictor():
    # estimator check against a predictor that plays the optimal rule:
    # 3 sigma of a Bernoulli(PHI_MINUS_1) mean over 1e4 draws ~ 0.011
    scen = make_scenario("gauss_mix_1d")
    net = hn.train_network("cls_abstain", scen, 10, Schedule(0.5, 0.3), seed=1)
    rng = np.random.default_rng(6)
    sample = hn.evaluate_conditional_risk(
        net, scen, 10**4, rng,
        _predict=lambda xs: np.array([bayes_classifier(scen, x) for x in xs]),
    )
    assert abs(sample.risk - PHI_MINUS_1) <= 0.011


def test_evaluate_risk_single_test_point():
    scen = make_scenario("gauss_mix_1d")
    net = hn.train_network("cls_abstain", scen, 50, Schedule(0.5, 0.3), seed=1)
    sample = hn.evaluate_conditional_risk(net, scen, 1, np.random.default_rng(2))
    assert sample.risk in (0.0, 1.0)


def test_evaluate_risk_deterministic_given_rng_seed():
    scen = make_scenario("sine_1d")
    net = hn.train_network("reg_abstain", scen, 100, Schedule(0.5, 0.3, 1.0, 0.1), seed=1)
    a = hn.evaluate_conditional_risk(net, scen, 500, np.random.default_rng(3))
    b = hn.evaluate_conditional_risk(net, scen, 500, np.random.default_rng(3))
    assert a == b


def test_monte_carlo_matches_exact_oracle_at_fixed_query():
    # cls_noabstain with fresh coins at a pinned x: engine risk vs the
    # exact vote-distribution calculation
    scen = make_scenario("gauss_mix_1d")
    net = hn.train_network(
        "cls_noabstain", scen, 15, Schedule(0.8, 0.2), seed=7, coin_mode="per_query"
    )
    x = np.array([0.8])
    exact = exact_conditional_error_at_x(net, scen, x)
    rounds = 200_000
    batch = predict_batch(net, np.tile(x, (rounds, 1)), coin_seed=17)
    eta = float(scen.eta(x[None, :])[0])
    mc = float(np.mean(np.where(batch.values == 1, 1 - eta, eta)))
    assert abs(mc - exact) <= 0.005


def test_estimate_expected_risk_report_fields():
    cfg = small_config()
    report = hn.estimate_expected_risk(cfg, 200)
    assert report.n == 200
    assert report.replications == 3
    assert report.excess_risk == pytest.approx(report.risk_mean - report.bayes_risk)
    assert report.ci_low == pytest.approx(report.risk_mean - 1.96 * report.risk_se)
    assert report.ci_high == pytest.approx(report.risk_mean + 1.96 * report.risk_se)
    assert report.bits_per_query == pytest.approx(math.log2(3))
    assert 0.0 <= report.abstain_rate <= 1.0
    assert not report.se_degenerate
    assert report.schedule_validity == "satisfies"
    with pytest.raises(ValueError, match="not in the configured grid"):
        hn.estimate_expected_risk(cfg, 75)


def test_estimate_expected_risk_single_replication_flagged():
    report = hn.estimate_expected_risk(small_config(replications=1), 50)
    assert report.se_degenerate
    assert report.risk_se == 0.0


def test_estimate_expected_risk_negative_excess_guard(monkeypatch):
    # a wrong ground-truth value must be caught, not reported
    monkeypatch.setattr(hn, "bayes_risk", lambda scenario: 0.9)
    with pytest.raises(RuntimeError, match="ground-truth"):
        hn.estimate_expected_risk(small_config(), 200)


def test_run_sweep_deterministic_and_jobs_independent():
    cfg = small_config()
    a = hn.run_sweep(cfg)
    b = hn.run_sweep(cfg)
    c = hn.run_sweep(cfg, jobs=2)
    strip = lambda r: dataclasses.replace(r, wall_time_s=0.0)
    assert [strip(r) for r in a] == [strip(r) for r in b]
    assert [strip(r) for r in a] == [strip(r) for r in c]
    assert [r.n for r in a] == [50, 200]


def test_run_sweep_runs_every_cell_through_one_pool(monkeypatch):
    made = []

    class CountingPool(hn.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(hn, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(hn.os, "cpu_count", lambda: 2)
    cfg = small_config(n_grid=(50, 100, 200))
    pooled = hn.run_sweep(cfg, jobs=2)
    assert made == [2]
    strip = lambda r: dataclasses.replace(r, wall_time_s=0.0)
    serial = hn.run_sweep(cfg)
    assert [strip(r) for r in pooled] == [strip(r) for r in serial]
    assert all(r.wall_time_s > 0 for r in pooled)
    # the guard still fires, for the first failing cell in grid order
    monkeypatch.setattr(hn, "bayes_risk", lambda scenario: 0.9)
    first = serial[0].risk_mean - 0.9
    with pytest.raises(RuntimeError, match=f"excess risk {first:.6g} .*ground-truth"):
        hn.run_sweep(cfg, jobs=2)
    assert len(made) == 2


def test_first_cell_time_excludes_the_lazy_binom_import():
    # reg_noabstain binds predict.binom (scipy.stats, ~0.6 s to import)
    # before its first timed replication, serially and in each pool worker;
    # other protocols never import scipy.stats (jobs=1 runs the
    # replications, and so any binding, in this process)
    src = str(Path(hn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    probe = """\
import sys, warnings
from onebitsim.harness import ExperimentConfig, run_sweep
from onebitsim.protocols import Schedule
warnings.simplefilter("ignore")
def config(protocol, scenario_id):
    return ExperimentConfig(protocol, scenario_id, Schedule(0.5, 0.3), (100, 200),
                            replications=2, test_points=200)
run_sweep(config("cls_abstain", "gauss_mix_1d"), jobs=1)
print("scipy.stats" in sys.modules)
for jobs in (2, 1):
    print(run_sweep(config("reg_noabstain", "sine_1d"), jobs=jobs)[0].wall_time_s)
"""
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    loaded, pooled, serial = done.stdout.split()
    assert loaded == "False"
    assert float(pooled) < 0.2 and float(serial) < 0.2


def test_run_sweep_single_point_grid():
    reports = hn.run_sweep(small_config(n_grid=(80,)))
    assert len(reports) == 1 and reports[0].n == 80


def test_seed_changes_risk_columns_only():
    a = hn.estimate_expected_risk(small_config(seed=1), 200)
    b = hn.estimate_expected_risk(small_config(seed=2), 200)
    assert a.bayes_risk == b.bayes_risk
    assert a.r_n == b.r_n and a.c_n == b.c_n
    assert a.risk_mean != b.risk_mean


@pytest.mark.filterwarnings("ignore::onebitsim.protocols.ScheduleViolationWarning")
def test_impossibility_demo_small_scale():
    cfg = hn.ExperimentConfig(
        protocol="reg_noabstain",
        scenario_id="sine_1d",
        scenario_params={"noise": 0.1},
        schedule=Schedule(0.5, 0.3),
        n_grid=(200, 2000),
        replications=2,
        test_points=400,
        seed=3,
        family_c=2.0,
    )
    demo = hn.impossibility_demo(cfg)
    assert demo.predicted_plateau_mse == pytest.approx(0.51)
    assert demo.predicted_excess_plateau == pytest.approx(0.5)
    assert demo.terminal_mse == demo.noabstain_reports[-1].risk_mean
    assert len(demo.noabstain_reports) == len(demo.abstain_reports) == 2
    # the abstention twin on the same radius schedule does strictly better
    assert (
        demo.abstain_reports[-1].excess_risk
        < demo.noabstain_reports[-1].excess_risk
    )
    assert 0.0 <= demo.grid_mean_abs_estimate < 2.0
    with pytest.raises(ValueError, match="reg_noabstain"):
        hn.impossibility_demo(small_config())


def test_abstention_telemetry_flows_into_report():
    report = hn.estimate_expected_risk(small_config(schedule=Schedule(0.05, 0.3)), 50)
    assert report.abstain_rate > 0.9
    assert report.all_abstain_frac > 0.0


def test_pool_workers_clamps_to_tasks_and_cpus():
    assert hn.pool_workers(1, 20, cpus=8) == 1
    assert hn.pool_workers(2, 4, cpus=2) == 2
    assert hn.pool_workers(10**9, 4, cpus=2) == 2
    assert hn.pool_workers(10**9, 3, cpus=64) == 3
    assert hn.pool_workers(4, 1, cpus=8) == 1
    assert hn.pool_workers(10**9, 10**9) <= (os.cpu_count() or 1)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            hn.pool_workers(jobs, 4, cpus=2)
