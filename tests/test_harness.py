"""Training, risk estimation, sweeps, and the impossibility demo."""

import dataclasses
import inspect
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from onebitsim import harness as hn
from onebitsim import predict
from onebitsim.oracle import exact_conditional_error_at_x
from onebitsim.predict import PredictionBatch, predict_batch
from onebitsim.protocols import COIN_MODES, PROTOCOLS, Schedule, ScheduleViolationWarning
from onebitsim.scenarios import SCENARIO_IDS, bayes_classifier, in_ball, make_scenario
from onebitsim.seeding import derive_seed, derived_rng

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


@pytest.mark.parametrize(
    "field,value",
    [("n_grid", (50.7, 100.2)), ("seed", 1.5), ("replications", 2.5), ("test_points", 20.5)],
)
def test_experiment_config_rejects_non_integral_counts(field, value):
    # n_grid once ran as (50, 100); the others failed inside a replication
    with pytest.raises(ValueError, match=f"^{field}: expected an integer, got"):
        small_config(**{field: value})


@pytest.mark.parametrize(
    "field,value,expected",
    [("n_grid", 5, "a sequence of integers"), ("scenario_params", "x", "a dict"),
     ("scenario_params", None, "a dict"), ("schedule", None, "a Schedule"),
     ("schedule", (0.5, 0.3), "a Schedule")],
)
def test_experiment_config_rejects_wrong_types_by_field(field, value, expected):
    # these once escaped as unnamed TypeErrors, or built and failed in run_sweep
    message = f"{field}: expected {expected}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        small_config(**{field: value})


def test_evaluate_conditional_risk_names_test_points():
    scen = make_scenario("gauss_mix_1d")
    net = hn.train_network("cls_abstain", scen, 20, Schedule(0.5, 0.3), seed=1)
    with pytest.raises(ValueError, match="^test_points: must be >= 1"):
        hn.evaluate_conditional_risk(net, scen, 0, np.random.default_rng(0))


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
    [("seed", math.nan), ("seed", math.inf), ("replications", math.nan),
     ("test_points", math.inf), ("n_grid", (100, math.inf)),
     ("n_grid", (100, 10**400))],  # an int beyond float range
)
def test_experiment_config_rejects_non_finite_numbers(field, value):
    with pytest.raises(ValueError, match=f"^{field}: expected a finite number"):
        small_config(**{field: value})


@pytest.mark.parametrize(
    "protocol,scenario_id,params",
    [("cls_abstain", "gauss_mix_1d", {"sigma": math.nan}),
     ("reg_abstain", "sine_1d", {"noise": math.nan}),
     ("specialists", "cityscape_2d", {"spread": math.nan}),
     ("specialists", "cityscape_2d", {"center": (0.5, math.inf)}),
     ("cls_abstain", "gauss_mix_1d", {"sigma": 10**400})],
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


def test_network_size_is_the_number_of_rows():
    net = hn.train_network(
        "cls_noabstain", make_scenario("gauss_mix_1d"), 50, Schedule(0.5, 0.3), seed=2
    )
    assert net.n == len(net.xs) == 50
    smaller = dataclasses.replace(
        net, xs=net.xs[:10], ys=net.ys[:10], fixed_coins=net.fixed_coins[:10],
    )
    assert smaller.n == 10
    assert predict_batch(smaller, np.zeros((3, 1))).responders.tolist() == [10] * 3
    with pytest.raises(TypeError):  # no field can contradict the data
        dataclasses.replace(net, n=10)


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
    assert net.trained and np.isfinite(net.ys).all()
    assert np.all(in_ball(net.xs, net.centers, net.r_n))


def test_sensor_view_roundtrip():
    scen = make_scenario("gauss_mix_1d")
    net = hn.train_network("cls_noabstain", scen, 5, Schedule(0.5, 0.3), seed=2)
    s = net.sensor(3)
    np.testing.assert_array_equal(s.datum.x, net.xs[3])
    assert s.datum.y == net.ys[3]
    assert s.fixed_coin == net.fixed_coins[3]


def test_evaluate_risk_of_bayes_predictor(monkeypatch):
    # estimator check against a predictor that plays the optimal rule:
    # 3 sigma of a Bernoulli(PHI_MINUS_1) mean over 1e4 draws ~ 0.011
    scen = make_scenario("gauss_mix_1d")
    net = hn.train_network("cls_abstain", scen, 10, Schedule(0.5, 0.3), seed=1)

    def bayes_batch(network, xs, coin_seed, default_label):
        values = np.array([bayes_classifier(scen, x) for x in xs])
        return PredictionBatch(values, np.ones(len(xs)), 1)

    monkeypatch.setattr(hn, "predict_batch", bayes_batch)
    rng = np.random.default_rng(6)
    sample = hn.evaluate_conditional_risk(net, scen, 10**4, rng)
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


def test_one_cell_report_fields():
    cfg = small_config(n_grid=(200,))
    [report] = hn.run_sweep(cfg)
    assert report.n == 200
    assert report.replications == 3
    assert report.excess_risk == pytest.approx(report.risk_mean - report.bayes_risk)
    assert report.bits_per_query == pytest.approx(math.log2(3))
    assert 0.0 <= report.abstain_rate <= 1.0
    assert report.risk_se > 0
    assert report.schedule_validity == "satisfies"


def test_one_cell_single_replication_flagged():
    [report] = hn.run_sweep(small_config(replications=1, n_grid=(50,)))
    assert report.replications == 1
    assert report.risk_se == 0.0


def test_one_cell_negative_excess_guard(monkeypatch):
    # a wrong ground-truth value must be caught, not reported
    cfg = small_config(n_grid=(200,))
    monkeypatch.setattr(type(cfg.scenario()), "bayes_risk", lambda scenario: 0.9)
    with pytest.raises(RuntimeError, match="ground-truth"):
        hn.run_sweep(cfg)


def test_run_sweep_deterministic_and_jobs_independent():
    cfg = small_config()
    a = hn.run_sweep(cfg)
    b = hn.run_sweep(cfg)
    c = hn.run_sweep(cfg, jobs=2)
    strip = lambda r: dataclasses.replace(r, wall_time_s=0.0)
    assert [strip(r) for r in a] == [strip(r) for r in b]
    assert [strip(r) for r in a] == [strip(r) for r in c]
    assert [r.n for r in a] == [50, 200]
    # every stream derives from (seed, n, rep): a one-n sweep is that n's cell
    for jobs in (1, 2):
        for n, cell in zip(cfg.n_grid, a):
            [one] = hn.run_sweep(dataclasses.replace(cfg, n_grid=(n,)), jobs)
            assert strip(one) == strip(cell)


def test_run_sweep_runs_every_cell_through_one_pool(monkeypatch):
    made = []

    class CountingPool(hn.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(hn, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(hn, "usable_cpus", lambda: 2)
    cfg = small_config(n_grid=(50, 100, 200))
    pooled = hn.run_sweep(cfg, jobs=2)
    assert made == [1]  # the caller is the second worker
    strip = lambda r: dataclasses.replace(r, wall_time_s=0.0)
    serial = hn.run_sweep(cfg)
    assert [strip(r) for r in pooled] == [strip(r) for r in serial]
    assert all(r.wall_time_s > 0 for r in pooled)
    # the guard still fires, for the first failing cell in grid order
    monkeypatch.setattr(type(cfg.scenario()), "bayes_risk", lambda scenario: 0.9)
    first = serial[0].risk_mean - 0.9
    with pytest.raises(RuntimeError, match=f"excess risk {first:.6g} .*ground-truth"):
        hn.run_sweep(cfg, jobs=2)
    assert len(made) == 2


def _log_replications(monkeypatch, log, *, slow_workers=False, slow_caller=False, fail=None):
    """Append each replication's pid, n and index to ``log`` (forked pool
    workers inherit the patch). The slow side sleeps 50 ms a replication,
    so the other one claims chunks first; replication ``fail`` = (n, rep)
    raises once it is logged."""
    caller, real = os.getpid(), hn._replication_sample

    def sample(arms, n, rep, probe=None):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {n} {rep}\n")
        if slow_caller if os.getpid() == caller else slow_workers:
            time.sleep(0.05)
        if (n, rep) == fail:
            raise ZeroDivisionError(f"replication {n}, {rep}")
        return real(arms, n, rep, probe)

    monkeypatch.setattr(hn, "_replication_sample", sample)
    monkeypatch.setattr(hn, "usable_cpus", lambda: 2)
    return lambda: [tuple(map(int, line.split())) for line in Path(log).read_text().splitlines()]


def test_the_caller_runs_chunks_from_the_back_of_the_pool_queue(monkeypatch, tmp_path):
    # 9 tasks at jobs=2 make 9 one-task chunks for the caller and a
    # one-process pool; the slow worker leaves the caller the last chunk
    cfg = small_config(n_grid=(50, 100, 200))
    serial = hn.run_sweep(cfg)
    logged = _log_replications(monkeypatch, tmp_path / "log", slow_workers=True)
    pooled = hn.run_sweep(cfg, jobs=2)
    strip = lambda r: dataclasses.replace(r, wall_time_s=0.0)
    assert [strip(r) for r in pooled] == [strip(r) for r in serial]
    runs = logged()
    assert sorted((n, rep) for _, n, rep in runs) == [
        (n, rep) for n in cfg.n_grid for rep in range(cfg.replications)
    ]  # each replication ran once
    mine = [(n, rep) for pid, n, rep in runs if pid == os.getpid()]
    assert (200, 2) in mine
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fail,by_caller", [((50, 0), False), ((200, 2), True)])
def test_a_failing_replication_propagates_and_leaves_no_worker(monkeypatch, tmp_path, fail,
                                                               by_caller):
    # the first chunk goes to the pool's worker, the last to the caller
    cfg = small_config(n_grid=(50, 100, 200))
    logged = _log_replications(monkeypatch, tmp_path / "log", fail=fail,
                               slow_workers=by_caller, slow_caller=not by_caller)
    with pytest.raises(ZeroDivisionError, match=f"replication {fail[0]}, {fail[1]}"):
        hn.run_sweep(cfg, jobs=2)
    assert multiprocessing.active_children() == []
    ran_by = [pid for pid, n, rep in logged() if (n, rep) == fail]
    assert len(ran_by) == 1
    assert (ran_by[0] == os.getpid()) == by_caller


def test_a_sweep_reads_no_signature(monkeypatch):
    # the scenario catalog's parameters are read once, at import
    calls = []
    real = inspect.signature
    monkeypatch.setattr(inspect, "signature", lambda *a, **k: calls.append(a) or real(*a, **k))
    cfg = small_config(replications=2)
    hn.run_sweep(cfg)
    assert hn.make_scenario("gauss_mix_1d", mu=2.0).dimension == 1
    assert calls == []


def _fresh_python(probe: str, *args: str) -> str:
    """The standard output of ``probe`` run in a new interpreter."""
    src = str(Path(hn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    ).stdout


def test_reg_noabstain_sweep_never_imports_scipy_stats():
    # the guesser crowd's quantile comes from scipy.special, so no sweep,
    # serial or pooled, loads scipy.stats, and no reg_noabstain first cell's
    # time includes a ~0.6 s import
    probe = """\
import sys, warnings
from onebitsim.harness import ExperimentConfig, run_sweep
from onebitsim.protocols import Schedule
warnings.simplefilter("ignore")
for protocol, scenario_id in (("cls_abstain", "gauss_mix_1d"), ("reg_noabstain", "sine_1d")):
    config = ExperimentConfig(protocol, scenario_id, Schedule(0.5, 0.3), (100, 200),
                              replications=2, test_points=200)
    first_cell = run_sweep(config, jobs=int(sys.argv[1]))[0].wall_time_s
print(first_cell)
print("scipy.stats" in sys.modules)
"""
    for jobs in (1, 2):
        first_cell, loaded = _fresh_python(probe, str(jobs)).split()
        assert loaded == "False"
        assert float(first_cell) < 0.2


def test_building_the_config_imports_all_that_its_sweep_needs():
    # no numpy or scipy import lands in a timed task or in a forked pool
    # worker: each compatible pair (and both coin modes of cls_noabstain)
    # runs in a child forked from an interpreter that has imported only the
    # library, and its sweep loads no module that building its config did not
    probe = """\
import os, sys, warnings
from onebitsim.harness import ExperimentConfig, run_sweep
from onebitsim.protocols import COIN_MODES, PROTOCOLS, Schedule
from onebitsim.scenarios import SCENARIO_IDS
warnings.simplefilter("ignore")
for protocol in PROTOCOLS:
    for scenario_id in SCENARIO_IDS:
        for coin_mode in COIN_MODES if protocol == "cls_noabstain" else COIN_MODES[:1]:
            sys.stdout.flush()
            if os.fork():
                os.wait()
                continue
            try:
                config = ExperimentConfig(protocol, scenario_id, Schedule(0.4, 0.2, 1.0, 0.1),
                                          (40,), replications=2, test_points=20,
                                          coin_mode=coin_mode)
                before = set(sys.modules)
                run_sweep(config, jobs=1)
                new = [m for m in set(sys.modules) - before
                       if m.split(".")[0] in ("numpy", "scipy")]
                print(protocol, scenario_id, coin_mode, *sorted(new), flush=True)
            except ValueError:
                pass  # not a compatible pair
            finally:
                os._exit(0)
"""
    expected = set()
    for protocol in PROTOCOLS:
        for scenario_id in SCENARIO_IDS:
            try:
                hn.check_compatible(protocol, make_scenario(scenario_id))
            except ValueError:
                continue
            modes = COIN_MODES if protocol == "cls_noabstain" else COIN_MODES[:1]
            expected |= {f"{protocol} {scenario_id} {mode}" for mode in modes}
    assert set(_fresh_python(probe).splitlines()) == expected


def test_run_sweep_single_point_grid():
    reports = hn.run_sweep(small_config(n_grid=(80,)))
    assert len(reports) == 1 and reports[0].n == 80


def test_seed_changes_risk_columns_only():
    [a] = hn.run_sweep(small_config(seed=1, n_grid=(200,)))
    [b] = hn.run_sweep(small_config(seed=2, n_grid=(200,)))
    assert a.bayes_risk == b.bayes_risk
    assert a.r_n == b.r_n and a.c_n == b.c_n
    assert a.risk_mean != b.risk_mean


def demo_config(**overrides):
    """The small-scale demo config of ``test_impossibility_demo_small_scale``."""
    base = dict(
        protocol="reg_noabstain",
        scenario_id="sine_1d",
        scenario_params={"noise": 0.1},
        schedule=Schedule(0.5, 0.3, c0=2.0),
        n_grid=(200, 2000),
        replications=2,
        test_points=400,
        seed=3,
    )
    base.update(overrides)
    return hn.ExperimentConfig(**base)


@pytest.mark.filterwarnings("ignore::onebitsim.protocols.ScheduleViolationWarning")
def test_reg_noabstain_amplitude_follows_the_schedule():
    # the rule encodes at the schedule's c_n, which every report names
    def sweep(**amplitude):
        return hn.run_sweep(demo_config(schedule=Schedule(0.5, 0.3, **amplitude)))

    one, two, clamped = sweep(c0=1.0), sweep(c0=2.0), sweep(clamp=2.0)
    assert [r.c_n for r in one + two + clamped] == [1.0] * 2 + [2.0] * 4
    assert all(a.risk_mean != b.risk_mean for a, b in zip(one, two))
    assert [r.risk_mean for r in clamped] == [r.risk_mean for r in two]
    defaults = dataclasses.replace(
        hn.default_impossibility_config(), n_grid=(200, 2000), replications=2, test_points=400
    )
    demo = hn.impossibility_demo(defaults)
    assert [r.c_n for r in demo.noabstain_reports] == [2.0, 2.0]


@pytest.mark.filterwarnings("ignore::onebitsim.protocols.ScheduleViolationWarning")
def test_impossibility_demo_small_scale():
    cfg = hn.ExperimentConfig(
        protocol="reg_noabstain",
        scenario_id="sine_1d",
        scenario_params={"noise": 0.1},
        schedule=Schedule(0.5, 0.3, c0=2.0),
        n_grid=(200, 2000),
        replications=2,
        test_points=400,
        seed=3,
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


def _schedule_warnings(caught) -> set[str]:
    return {str(w.message) for w in caught if w.category is ScheduleViolationWarning}


# beta = 0.95 puts the abstention arm outside its conditions too
@pytest.mark.parametrize("beta", [0.3, 0.95])
@pytest.mark.parametrize("jobs", [1, 2])
def test_demo_one_pass_gives_the_two_sweeps_reports(jobs, beta):
    config = demo_config(schedule=Schedule(0.5, beta))
    contrast = hn.impossibility_arms(config)[1]
    with warnings.catch_warnings(record=True) as shared:
        warnings.simplefilter("always")
        demo = hn.impossibility_demo(config, jobs=jobs)
    with warnings.catch_warnings(record=True) as separate:
        warnings.simplefilter("always")
        sweeps = hn.run_sweep(config, jobs), hn.run_sweep(contrast, jobs)
    untimed = lambda reports: [dataclasses.replace(r, wall_time_s=0.0) for r in reports]
    assert untimed(demo.noabstain_reports) == untimed(sweeps[0])
    assert untimed(demo.abstain_reports) == untimed(sweeps[1])
    assert _schedule_warnings(shared) == _schedule_warnings(separate)
    assert any("reg_abstain" in m for m in _schedule_warnings(shared)) == (beta > 0.5)
    # the query grid is answered by replication 0 at n_max: its network
    # and its coins, trained anew here
    n_max = config.n_grid[-1]
    seed = derive_seed(config.seed, n_max, 0, hn._STREAM_TRAIN)
    net = hn.train_network(config.protocol, config.scenario(), n_max, config.schedule, seed)
    coin_seed = derive_seed(config.seed, n_max, 0, hn._STREAM_COINS)
    values = predict_batch(net, np.linspace(0.0, 1.0, 101)[:, None], coin_seed).values
    assert demo.grid_mean_abs_estimate == float(np.mean(np.abs(values)))


def _recorded_schedule_warnings(run) -> list:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run()
    return [w for w in caught if w.category is ScheduleViolationWarning]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_run_warns_once_per_violating_arm_in_the_caller(jobs):
    # beta = 0.95 puts both demo arms outside their conditions; the verdict
    # is decided before any replication runs, so jobs changes nothing
    config = demo_config(schedule=Schedule(0.5, 0.95))
    runs = [
        (lambda: hn.run_sweep(config, jobs), ["reg_noabstain"]),
        (lambda: hn.run_sweep(dataclasses.replace(config, n_grid=(200,)), jobs),
         ["reg_noabstain"]),
        (lambda: hn.impossibility_demo(config, jobs), ["reg_noabstain", "reg_abstain"]),
    ]
    for run, protocols in runs:
        caught = _recorded_schedule_warnings(run)
        assert [str(w.message).split(": ")[0] for w in caught] == [
            f"schedule outside sufficient conditions for {p}" for p in protocols
        ]
        assert {w.filename for w in caught} == {__file__}
    # training alone trains the violating schedule without a word
    assert _recorded_schedule_warnings(lambda: hn.train_network(
        "reg_noabstain", config.scenario(), 200, config.schedule, seed=1)) == []


@pytest.mark.filterwarnings("ignore::onebitsim.protocols.ScheduleViolationWarning")
def test_demo_hashes_each_in_ball_coin_once(monkeypatch):
    config = demo_config()
    hashed = []
    real = predict.run_bits

    def counting(*args):
        bits = real(*args)
        hashed.append(bits.size)
        return bits

    monkeypatch.setattr(predict, "run_bits", counting)
    hn.impossibility_demo(config)
    scenario = config.scenario()

    def in_ball(n, rep, queries):
        seed = derive_seed(config.seed, n, rep, hn._STREAM_TRAIN)
        net = hn.train_network(config.protocol, scenario, n, config.schedule, seed)
        return int(predict.flag_counts(net.xs, net.r_n, queries, [])[0].sum())

    expected = sum(
        in_ball(n, rep, scenario.sample(
            derived_rng(config.seed, n, rep, hn._STREAM_EVAL), config.test_points)[0])
        for n in config.n_grid for rep in range(config.replications)
    )
    expected += in_ball(config.n_grid[-1], 0, np.linspace(0.0, 1.0, 101)[:, None])
    assert sum(hashed) == expected


@pytest.mark.filterwarnings("ignore::onebitsim.protocols.ScheduleViolationWarning")
def test_demo_trains_each_network_once(monkeypatch):
    config = demo_config()
    trained = []
    real = hn.train_network

    def counting(*args, **kwargs):
        trained.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(hn, "train_network", counting)
    hn.impossibility_demo(config)
    assert trained == [n for n in config.n_grid for _ in range(config.replications)]


def test_impossibility_arms_differ_only_in_protocol_and_amplitude():
    # both arms train on one network and answer one set of test draws, so
    # the contrast may change only what the fusion center does with them
    config, contrast = hn.impossibility_arms(demo_config())
    assert contrast == dataclasses.replace(
        config,
        protocol="reg_abstain",
        schedule=dataclasses.replace(config.schedule, c0=1.0, gamma=0.1, clamp=None),
    )
    assert (contrast.schedule.r0, contrast.schedule.beta) == (0.5, 0.3)


@pytest.mark.filterwarnings("ignore::onebitsim.protocols.ScheduleViolationWarning")
def test_each_arm_is_charged_an_equal_share_of_a_replication(monkeypatch):
    arms = hn.impossibility_arms(demo_config())
    sample = hn.RiskSample(0.6, 0.0, 0.0)
    monkeypatch.setattr(hn, "_timed_chunk", lambda tasks: [((sample, sample), 1.0)] * len(tasks))
    (noabstain, abstain), values = hn._cell_reports(arms, 1)
    assert values is None  # no probe queries, no answers
    # two replications of 1 s per cell, half of each charged to each arm
    assert [r.wall_time_s for r in noabstain + abstain] == [1.0] * 4


def test_demo_preconditions_name_their_field():
    with pytest.raises(ValueError, match="^protocol: the demo runs reg_noabstain"):
        hn.impossibility_arms(demo_config(protocol="reg_abstain"))


def test_abstention_telemetry_flows_into_report():
    [report] = hn.run_sweep(small_config(schedule=Schedule(0.05, 0.3), n_grid=(50,)))
    assert report.abstain_rate > 0.9
    assert report.all_abstain_frac > 0.0


def test_pool_workers_clamps_to_tasks_and_cpus(monkeypatch):
    assert hn.pool_workers(10**9, 10**9) == hn.usable_cpus()
    for jobs, tasks, cpus, workers in (
        (1, 20, 8, 1), (2, 4, 2, 2), (10**9, 4, 2, 2), (10**9, 3, 64, 3), (4, 1, 8, 1)
    ):
        monkeypatch.setattr(hn, "usable_cpus", lambda cpus=cpus: cpus)
        assert hn.pool_workers(jobs, tasks) == workers
    monkeypatch.setattr(hn, "usable_cpus", lambda: 2)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match=f"^jobs: must be >= 1, got {jobs}$"):
            hn.pool_workers(jobs, 4)


def test_usable_cpus_is_the_affinity_mask_else_the_cpu_count(monkeypatch):
    # a run pinned to one CPU starts no pool, however many the host has
    monkeypatch.setattr(hn.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(hn.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert hn.usable_cpus() == 1
    assert hn.pool_workers(4, 10) == 1
    monkeypatch.delattr(hn.os, "sched_getaffinity")
    assert hn.usable_cpus() == 8
    monkeypatch.setattr(hn.os, "cpu_count", lambda: None)
    assert hn.usable_cpus() == 1
