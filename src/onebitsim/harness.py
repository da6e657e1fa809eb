"""Experiment orchestration: train networks, estimate risks, run sweeps.

Expected risk is estimated by averaging the conditional risk over
independent replications (fresh training data each), with the conditional
risk itself estimated over fresh test draws. Every random stream is
derived from (master seed, n, replication), so replications are
order-independent: a sweep is a pure function of its configuration no
matter how many workers execute it.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import predict
from .predict import predict_batch
from .protocols import (
    Schedule,
    ScheduleViolationWarning,
    SensorState,
    check_coin_mode,
    draw_specialist_centers,
    protocol_spec,
    schedule_eval,
    validate_schedule,
)
from .scenarios import (
    Example,
    Scenario,
    bayes_risk,
    check_finite,
    make_scenario,
    sample_conditional_batch,
    scenario_parameters,
)
from .seeding import derive_seed, derived_rng

_STREAM_TRAIN = 0
_STREAM_EVAL = 1
_STREAM_REGIONS = 2
_STREAM_COINS = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce an experiment bit-for-bit.

    Construction rejects every bad value with ``ValueError("<field>:
    <reason>")``; a scenario parameter's field is
    ``scenario_params.<name>``.
    """

    protocol: str
    scenario_id: str
    schedule: Schedule
    n_grid: tuple[int, ...]
    scenario_params: dict = field(default_factory=dict)
    replications: int = 20
    test_points: int = 2000
    seed: int = 0
    coin_mode: str = "per_sensor"
    default_label: int = 0
    family_c: float = 2.0

    def __post_init__(self):
        for name in ("n_grid", "replications", "test_points", "family_c"):
            check_finite(name, getattr(self, name))
        protocol_spec(self.protocol)
        check_coin_mode(self.coin_mode)
        if self.replications < 1:
            raise ValueError("replications: must be >= 1")
        if self.test_points < 1:
            raise ValueError("test_points: must be >= 1")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(n < 1 for n in grid):
            raise ValueError("n_grid: must hold positive integers")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid: must be strictly increasing")
        if self.default_label not in (0, 1):
            raise ValueError("default_label: must be 0 or 1")
        if self.family_c <= 0:
            raise ValueError("family_c: must be positive")
        object.__setattr__(self, "n_grid", grid)
        scenario_parameters(self.scenario_id)  # an unknown id names scenario_id
        try:
            scenario = self.scenario()
        except ValueError as exc:
            raise ValueError(f"scenario_params.{exc}") from None
        try:
            check_compatible(self.protocol, scenario)
        except ValueError as exc:
            raise ValueError(
                f"scenario_id: {self.scenario_id} does not fit: {exc}"
            ) from None

    def scenario(self) -> Scenario:
        return make_scenario(self.scenario_id, **self.scenario_params)


@dataclass(frozen=True)
class NetworkState:
    """A trained network: one stored datum per sensor plus schedule values.

    Treated as immutable after training; answering queries never mutates
    it, so it is safe to share across evaluation workers.
    """

    protocol: str
    n: int
    r_n: float
    c_n: float
    xs: np.ndarray
    ys: np.ndarray
    untrainable: np.ndarray
    coin_mode: str = "per_sensor"
    fixed_coins: Optional[np.ndarray] = None
    centers: Optional[np.ndarray] = None
    family_c: float = 2.0

    @property
    def dimension(self) -> int:
        return self.xs.shape[1]

    @property
    def untrainable_count(self) -> int:
        return int(self.untrainable.sum())

    def sensor(self, i: int) -> SensorState:
        """Per-sensor view for the scalar protocol operations."""
        datum = None
        if not self.untrainable[i]:
            datum = Example(self.xs[i], float(self.ys[i]))
        center = None if self.centers is None else self.centers[i]
        coin = None if self.fixed_coins is None else int(self.fixed_coins[i])
        return SensorState(datum=datum, region_center=center, fixed_coin=coin)


def check_compatible(protocol: str, scenario: Scenario) -> None:
    """Raise ValueError when ``protocol`` cannot run on ``scenario``."""
    spec = protocol_spec(protocol)
    if scenario.task != spec.task:
        raise ValueError(f"{protocol} needs a {spec.task} scenario")
    if spec.regions:
        box = scenario.support_box
        if box is None or not (np.all(box[0] == 0.0) and np.all(box[1] == 1.0)):
            raise ValueError("specialists need X supported on the unit box")


def train_network(
    protocol: str,
    scenario: Scenario,
    n: int,
    schedule: Schedule,
    seed: int,
    *,
    coin_mode: str = "per_sensor",
    family_c: float = 2.0,
) -> NetworkState:
    """Distribute one training datum to each of n sensors.

    Specialist sensors first receive uniform random regions and then train
    on data conditioned to fall inside them; a region that carries no
    probability mass leaves its sensor untrainable (it will abstain
    forever), which is telemetry rather than an error. A schedule outside
    the sufficient consistency conditions warns but still trains --
    violating runs are legitimate experiment subjects.
    """
    check_coin_mode(coin_mode)
    spec = protocol_spec(protocol)
    check_compatible(protocol, scenario)
    d = scenario.dimension
    # the schedule starts at n = 1; an empty network has no radius
    r_n, c_n = schedule_eval(schedule, n) if n else (math.nan, math.nan)
    verdict = validate_schedule(schedule, protocol, d)
    if not verdict.ok:
        warnings.warn(
            f"schedule outside sufficient conditions for {protocol}: "
            f"{verdict.reason}",
            ScheduleViolationWarning,
            stacklevel=2,
        )
    data_rng = derived_rng(seed, _STREAM_TRAIN)
    centers = None
    untrainable = np.zeros(n, dtype=bool)
    if spec.regions:
        centers = draw_specialist_centers(n, d, derived_rng(seed, _STREAM_REGIONS))
        xs, ys, untrainable = sample_conditional_batch(scenario, centers, r_n, data_rng)
        trained = ~untrainable
        if trained.any():
            gap = np.sum((xs[trained] - centers[trained]) ** 2, axis=1)
            assert np.all(gap <= r_n * r_n), "trained datum escaped its region"
    else:
        xs, ys = scenario.sample(data_rng, n)
    fixed_coins = None
    if protocol == "cls_noabstain" and coin_mode == "per_sensor":
        fixed_coins = (derived_rng(seed, _STREAM_COINS).random(n) < 0.5).astype(
            np.int64
        )
    return NetworkState(
        protocol=protocol,
        n=n,
        r_n=r_n,
        c_n=c_n,
        xs=xs,
        ys=np.asarray(ys, dtype=float),
        untrainable=untrainable,
        coin_mode=coin_mode,
        fixed_coins=fixed_coins,
        centers=centers,
        family_c=family_c,
    )


@dataclass(frozen=True)
class RiskSample:
    """One replication's conditional risk estimate plus abstention telemetry."""

    risk: float
    abstain_rate: float
    all_abstain_frac: float


def evaluate_conditional_risk(
    network: NetworkState,
    scenario: Scenario,
    test_points: int,
    rng: np.random.Generator,
    *,
    default_label: int = 0,
    _predict=None,
) -> RiskSample:
    """Estimate the trained network's conditional risk on fresh draws.

    Classification: misclassification fraction; regression: mean squared
    error. Fresh response coins are drawn per query where the protocol
    requires them. ``_predict`` swaps in an alternative prediction function
    (a testing seam for checking the estimator against known rules).
    """
    if test_points < 1:
        raise ValueError("test_points must be >= 1")
    xs, ys = scenario.sample(rng, test_points)
    coin_seed = int(rng.integers(2**63))
    if _predict is not None:
        values = np.asarray(_predict(xs))
        batch = None
    else:
        batch = predict_batch(network, xs, coin_seed, default_label)
        values = batch.values
    if scenario.task == "classification":
        risk = float(np.mean(values != ys))
    else:
        risk = float(np.mean((values - ys) ** 2))
    if batch is None:
        return RiskSample(risk, 0.0, 0.0)
    return RiskSample(risk, batch.abstain_rate, batch.all_abstain_frac)


@dataclass(frozen=True)
class RiskReport:
    """Risk summary for one (protocol, scenario, n) cell."""

    protocol: str
    scenario_id: str
    dimension: int
    n: int
    r_n: float
    c_n: float
    schedule_validity: str
    replications: int
    test_points: int
    risk_mean: float
    risk_se: float
    ci_low: float
    ci_high: float
    bayes_risk: float
    excess_risk: float
    bits_per_query: float
    abstain_rate: float
    all_abstain_frac: float
    seed: int
    se_degenerate: bool
    wall_time_s: float


def _replication_sample(config: ExperimentConfig, n: int, rep: int) -> RiskSample:
    scenario = config.scenario()
    network = train_network(
        config.protocol,
        scenario,
        n,
        config.schedule,
        derive_seed(config.seed, n, rep, _STREAM_TRAIN),
        coin_mode=config.coin_mode,
        family_c=config.family_c,
    )
    rng = derived_rng(config.seed, n, rep, _STREAM_EVAL)
    return evaluate_conditional_risk(
        network,
        scenario,
        config.test_points,
        rng,
        default_label=config.default_label,
    )


def _timed_replication(args) -> tuple[RiskSample, float]:
    """One replication and its own duration, measured where it runs. The
    names the protocol's engine loads on first use are bound before the
    clock starts, so that no duration includes their import."""
    for name in protocol_spec(args[0].protocol).lazy_names:
        getattr(predict, name)
    start = time.perf_counter()
    sample = _replication_sample(*args)
    return sample, time.perf_counter() - start


def pool_workers(jobs: int, tasks: int, cpus: Optional[int] = None) -> int:
    """Worker processes for ``tasks`` replications: ``jobs`` clamped to the
    task count and the CPU count (``os.cpu_count()`` unless given). One
    means the replications run serially in this process."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if cpus is None:
        cpus = os.cpu_count() or 1
    return max(1, min(jobs, tasks, cpus))


def _cell_report(
    config: ExperimentConfig, n: int, timed: list[tuple[RiskSample, float]]
) -> RiskReport:
    samples = [sample for sample, _ in timed]
    risks = [s.risk for s in samples]
    r = len(risks)
    mean = math.fsum(risks) / r
    if r >= 2:
        var = math.fsum((x - mean) ** 2 for x in risks) / (r - 1)
        se = math.sqrt(var / r)
        degenerate = False
    else:
        se = 0.0
        degenerate = True
    scenario = config.scenario()
    lstar = bayes_risk(scenario)
    excess = mean - lstar
    if not degenerate and se > 0 and excess < -3.0 * se:
        raise RuntimeError(
            f"excess risk {excess:.6g} is below -3*SE ({se:.6g}); "
            "the estimator appears to beat the optimal rule, which points "
            "at a ground-truth bug"
        )
    verdict = validate_schedule(config.schedule, config.protocol, scenario.dimension)
    r_n, c_n = schedule_eval(config.schedule, n)
    return RiskReport(
        protocol=config.protocol,
        scenario_id=config.scenario_id,
        dimension=scenario.dimension,
        n=n,
        r_n=r_n,
        c_n=c_n,
        schedule_validity=verdict.status,
        replications=config.replications,
        test_points=config.test_points,
        risk_mean=mean,
        risk_se=se,
        ci_low=mean - 1.96 * se,
        ci_high=mean + 1.96 * se,
        bayes_risk=lstar,
        excess_risk=excess,
        bits_per_query=protocol_spec(config.protocol).bits_per_query,
        abstain_rate=math.fsum(s.abstain_rate for s in samples) / r,
        all_abstain_frac=math.fsum(s.all_abstain_frac for s in samples) / r,
        seed=config.seed,
        se_degenerate=degenerate,
        wall_time_s=math.fsum(seconds for _, seconds in timed),
    )


def _cell_reports(
    config: ExperimentConfig, grid: tuple[int, ...], jobs: int
) -> list[RiskReport]:
    """Run every (n, replication) of ``grid`` through one worker pool (or
    serially), then summarise each cell in grid order. The pool takes the
    tasks in chunks, about four per worker, so that many tiny replications
    do not pay one round trip each."""
    tasks = [(config, n, rep) for n in grid for rep in range(config.replications)]
    workers = pool_workers(jobs, len(tasks))
    if workers > 1:
        chunksize = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            timed = list(pool.map(_timed_replication, tasks, chunksize=chunksize))
    else:
        timed = [_timed_replication(t) for t in tasks]
    reps = config.replications
    return [
        _cell_report(config, n, timed[i * reps:(i + 1) * reps])
        for i, n in enumerate(grid)
    ]


def estimate_expected_risk(
    config: ExperimentConfig, n: int, jobs: int = 1
) -> RiskReport:
    """Average the conditional risk over fresh replications at size n.

    Replication seeds derive from (master seed, n, replication index), so
    the result is independent of execution order and of ``jobs``. The
    report's ``wall_time_s`` is the sum of the replications' own durations.
    """
    if n not in config.n_grid:
        raise ValueError(f"n={n} is not in the configured grid {config.n_grid}")
    return _cell_reports(config, (n,), jobs)[0]


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> list[RiskReport]:
    """One RiskReport per grid size, as ``estimate_expected_risk`` gives it,
    from one pool over all of the sweep's (n, replication) tasks."""
    return _cell_reports(config, config.n_grid, jobs)


@dataclass(frozen=True)
class ImpossibilityReport:
    """Sweep evidence that the one-bit no-abstention regression estimate
    collapses toward zero while its abstention twin converges."""

    noabstain_reports: tuple[RiskReport, ...]
    abstain_reports: tuple[RiskReport, ...]
    grid_mean_abs_estimate: float
    terminal_mse: float
    predicted_plateau_mse: float
    predicted_excess_plateau: float
    bayes_risk: float


def default_impossibility_config(seed: int = 0) -> ExperimentConfig:
    return ExperimentConfig(
        protocol="reg_noabstain",
        scenario_id="sine_1d",
        scenario_params={"noise": 0.1},
        schedule=Schedule(r0=0.5, beta=0.3),
        n_grid=(10**4, 10**5, 10**6),
        replications=3,
        test_points=2000,
        seed=seed,
        family_c=2.0,
    )


def impossibility_demo(
    config: Optional[ExperimentConfig] = None, jobs: int = 1
) -> ImpossibilityReport:
    """Contrast the fixed-amplitude no-abstention estimator against the
    abstention protocol on the same scenario and radius schedule.

    Reports the sweep for both arms, the mean |estimate| over a 101-point
    query grid at the largest n (the collapse toward the constant 0), and
    the predicted MSE plateau E[Y^2] that the no-abstention arm settles at.
    """
    if config is None:
        config = default_impossibility_config()
    if config.protocol != "reg_noabstain":
        raise ValueError("the demo runs the reg_noabstain protocol")
    scenario = config.scenario()
    if scenario.dimension != 1:
        raise ValueError("the demo expects a one-dimensional scenario")
    noabstain_reports = tuple(run_sweep(config, jobs))
    contrast = replace(
        config,
        protocol="reg_abstain",
        schedule=replace(config.schedule, c0=1.0, gamma=0.1, clamp=None),
    )
    abstain_reports = tuple(run_sweep(contrast, jobs))
    n_max = config.n_grid[-1]
    network = train_network(
        config.protocol,
        scenario,
        n_max,
        config.schedule,
        derive_seed(config.seed, n_max, 0, _STREAM_TRAIN),
        family_c=config.family_c,
    )
    lo, hi = scenario.support_box
    grid = np.linspace(lo[0], hi[0], 101)[:, None]
    batch = predict_batch(
        network,
        grid,
        coin_seed=derive_seed(config.seed, n_max, 0, _STREAM_COINS),
        default_label=config.default_label,
    )
    lstar = bayes_risk(scenario)
    m2 = scenario.second_moment()
    return ImpossibilityReport(
        noabstain_reports=noabstain_reports,
        abstain_reports=abstain_reports,
        grid_mean_abs_estimate=float(np.mean(np.abs(batch.values))),
        terminal_mse=noabstain_reports[-1].risk_mean,
        predicted_plateau_mse=m2,
        predicted_excess_plateau=m2 - lstar,
        bayes_risk=lstar,
    )
