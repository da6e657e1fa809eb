"""Experiment orchestration: train networks, estimate risks, run sweeps.

Expected risk is estimated by averaging the conditional risk over
independent replications (fresh training data each), with the conditional
risk itself estimated over fresh test draws. Every random stream is
derived from (master seed, n, replication), so replications are
order-independent: a sweep is a pure function of its configuration no
matter how many workers execute it. A replication may serve several arms
(configs that differ only in protocol and amplitudes) with one training.
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

from .predict import load_engine, predict_batch
from .protocols import (
    NetworkState,
    Schedule,
    ScheduleViolationWarning,
    check_coin_mode,
    protocol_spec,
    schedule_eval,
    validate_schedule,
)
from .scenarios import (
    Scenario,
    UniformBoxScenario,
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

    def __post_init__(self):
        for name, kind, what in (
            ("n_grid", (tuple, list, np.ndarray), "a sequence of integers"),
            ("scenario_params", dict, "a dict"),
            ("schedule", Schedule, "a Schedule"),
        ):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name}: expected {what}, got {getattr(self, name)!r}")
        for name in ("n_grid", "seed", "replications", "test_points"):
            check_finite(name, getattr(self, name), integer=True)
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
        try:  # c_n grows with n, so the largest n decides
            c_max = schedule_eval(self.schedule, grid[-1])[1]
        except OverflowError:
            c_max = math.inf
        if not math.isfinite(c_max):
            raise ValueError(f"gamma: c_n = c0 * n^gamma overflows at n = {grid[-1]}")
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
        load_engine(self.protocol, scenario.dimension, self.coin_mode)

    def scenario(self) -> Scenario:
        return make_scenario(self.scenario_id, **self.scenario_params)


def check_compatible(protocol: str, scenario: Scenario) -> None:
    """Raise ValueError when ``protocol`` cannot run on ``scenario``."""
    spec = protocol_spec(protocol)
    if scenario.task != spec.task:
        raise ValueError(f"{protocol} needs a {spec.task} scenario")
    if spec.regions and not isinstance(scenario, UniformBoxScenario):
        raise ValueError("specialists need X supported on the unit box")


def train_network(
    protocol: str,
    scenario: Scenario,
    n: int,
    schedule: Schedule,
    seed: int,
    *,
    coin_mode: str = "per_sensor",
) -> NetworkState:
    """Distribute one training datum to each of n sensors.

    Specialist sensors first receive uniform random regions and then train
    on data conditioned to fall inside them, all or none: a radius that is
    not positive (r_n underflowing to 0) leaves the network untrained, its
    sensors abstaining forever, which is telemetry rather than an error.
    Every schedule trains, including one outside the sufficient consistency
    conditions: violating runs are legitimate experiment subjects. Runs
    warn about such a schedule; ``validate_schedule`` gives its verdict
    directly. Both regression rules answer at the schedule's c_n.
    """
    check_coin_mode(coin_mode)
    spec = protocol_spec(protocol)
    check_compatible(protocol, scenario)
    d = scenario.dimension
    # the schedule starts at n = 1; an empty network has no radius
    r_n, c_n = schedule_eval(schedule, n) if n else (math.nan, math.nan)
    data_rng = derived_rng(seed, _STREAM_TRAIN)
    centers = None
    if spec.regions:
        # region centers i.i.d. uniform on the unit box [0,1]^d
        centers = derived_rng(seed, _STREAM_REGIONS).random((n, d))
        xs, ys, _ = sample_conditional_batch(scenario, centers, r_n, data_rng)
    else:
        xs, ys = scenario.sample(data_rng, n)
    fixed_coins = None
    if protocol == "cls_noabstain" and coin_mode == "per_sensor":
        fixed_coins = (derived_rng(seed, _STREAM_COINS).random(n) < 0.5).astype(
            np.int64
        )
    return NetworkState(
        protocol=protocol,
        r_n=r_n,
        c_n=c_n,
        xs=xs,
        ys=np.asarray(ys, dtype=float),
        fixed_coins=fixed_coins,
        centers=centers,
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
) -> RiskSample:
    """Estimate the trained network's conditional risk on fresh draws.

    Classification: misclassification fraction; regression: mean squared
    error. Fresh response coins are drawn per query where the protocol
    requires them. A tuple of regression arms gives one sample per arm.
    """
    if test_points < 1:
        raise ValueError("test_points: must be >= 1")
    xs, ys = scenario.sample(rng, test_points)
    coin_seed = int(rng.integers(2**63))
    batch = predict_batch(network, xs, coin_seed)
    samples = []
    for b in batch.arms() if isinstance(network, tuple) else [batch]:
        if scenario.task == "classification":
            risk = float(np.mean(b.values != ys))
        else:
            risk = float(np.mean((b.values - ys) ** 2))
        samples.append(RiskSample(risk, b.abstain_rate, b.all_abstain_frac))
    return tuple(samples) if isinstance(network, tuple) else samples[0]


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
    bayes_risk: float
    excess_risk: float
    bits_per_query: float
    abstain_rate: float
    all_abstain_frac: float
    seed: int
    wall_time_s: float


def _replication_sample(arms: tuple, n: int, rep: int, probe=None) -> tuple:
    """One sample per arm. The first arm trains the network; each other
    arm answers with a copy that takes its protocol and amplitude. Given
    ``probe`` queries, the first arm's network answers them too, with the
    coins of ``derive_seed(seed, n, rep, _STREAM_COINS)``, and the answers
    follow the samples."""
    first = arms[0]
    scenario = first.scenario()
    seed = derive_seed(first.seed, n, rep, _STREAM_TRAIN)
    network = train_network(first.protocol, scenario, n, first.schedule, seed,
                            coin_mode=first.coin_mode)
    networks = (network,)
    for arm in arms[1:]:
        c_n = schedule_eval(arm.schedule, n)[1]
        networks += (replace(network, protocol=arm.protocol, c_n=c_n),)
    rng = derived_rng(first.seed, n, rep, _STREAM_EVAL)
    samples = evaluate_conditional_risk(networks if arms[1:] else network, scenario,
                                        first.test_points, rng)
    samples = samples if arms[1:] else (samples,)
    if probe is None:
        return samples
    coin_seed = derive_seed(first.seed, n, rep, _STREAM_COINS)
    return samples + (predict_batch(network, probe, coin_seed).values,)


def _timed_chunk(tasks: list) -> list[tuple[tuple, float]]:
    """Each replication and its own duration, measured where it runs."""
    timed = []
    for args in tasks:
        start = time.perf_counter()
        samples = _replication_sample(*args)
        timed.append((samples, time.perf_counter() - start))
    return timed


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_workers(jobs: int, tasks: int) -> int:
    """Processes that run ``tasks`` replications: ``jobs`` clamped to the
    task count and ``usable_cpus()``, this process included. One means the
    replications run serially here, with no pool; more means this process
    and a pool of one fewer."""
    if jobs < 1:
        raise ValueError(f"jobs: must be >= 1, got {jobs}")
    return max(1, min(jobs, tasks, usable_cpus()))


def _cell_report(
    config: ExperimentConfig, validity: str, n: int, timed: list[tuple[RiskSample, float]]
) -> RiskReport:
    samples = [sample for sample, _ in timed]
    risks = [s.risk for s in samples]
    r = len(risks)
    mean = math.fsum(risks) / r
    se = 0.0  # one replication has no spread, and skips the check below
    if r >= 2:
        se = math.sqrt(math.fsum((x - mean) ** 2 for x in risks) / (r - 1) / r)
    scenario = config.scenario()
    lstar = scenario.bayes_risk()
    excess = mean - lstar
    if se > 0 and excess < -3.0 * se:
        raise RuntimeError(
            f"excess risk {excess:.6g} is below -3*SE ({se:.6g}); "
            "the estimator appears to beat the optimal rule, which points "
            "at a ground-truth bug"
        )
    r_n, c_n = schedule_eval(config.schedule, n)
    return RiskReport(
        protocol=config.protocol,
        scenario_id=config.scenario_id,
        dimension=scenario.dimension,
        n=n,
        r_n=r_n,
        c_n=c_n,
        schedule_validity=validity,
        replications=config.replications,
        test_points=config.test_points,
        risk_mean=mean,
        risk_se=se,
        bayes_risk=lstar,
        excess_risk=excess,
        bits_per_query=protocol_spec(config.protocol).bits_per_query,
        abstain_rate=math.fsum(s.abstain_rate for s in samples) / r,
        all_abstain_frac=math.fsum(s.all_abstain_frac for s in samples) / r,
        seed=config.seed,
        wall_time_s=math.fsum(seconds for _, seconds in timed),
    )


def _cell_reports(
    arms: tuple[ExperimentConfig, ...], jobs: int, probe=None
) -> tuple[list[list[RiskReport]], Optional[np.ndarray]]:
    """Run every (n, replication) of ``n_grid`` for all ``arms`` (one config,
    or ``impossibility_arms``) in one pass over ``pool_workers`` processes, and
    summarise each arm's cells in grid order, charging each arm an equal
    share of a replication's time. Replication 0 at the largest n also
    answers the ``probe`` queries, whose answers come back with the reports
    (None without a probe).

    With more than one worker, the tasks go in chunks, about four per
    worker, so that tiny replications do not pay a round trip each, to a
    pool of one worker fewer; this process is the last worker. Walking
    from the back of the queue, it runs each chunk that it can still
    cancel (it is warm, where a forked worker's first task is not), and
    then gathers every result in task order. A failing chunk cancels what
    is still queued, and its error propagates once the pool has exited.
    Each arm's schedule verdict is decided once, before any task runs: an
    arm outside its conditions warns once, in this process, whatever
    ``jobs`` is, naming the line that called the public entry point."""
    d = arms[0].scenario().dimension
    validity = []
    for arm in arms:
        verdict = validate_schedule(arm.schedule, arm.protocol, d)
        if not verdict.ok:
            text = f"schedule outside sufficient conditions for {arm.protocol}: {verdict.reason}"
            warnings.warn(text, ScheduleViolationWarning, stacklevel=3)
        validity.append(verdict.status)
    grid, reps = arms[0].n_grid, arms[0].replications
    tasks = [(arms, n, rep) for n in grid for rep in range(reps)]
    last = len(tasks) - reps  # replication 0 at the largest n
    if probe is not None:
        tasks[last] += (probe,)
    workers = pool_workers(jobs, len(tasks))
    if workers > 1:
        size = max(1, len(tasks) // (4 * workers))
        chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        pool = ProcessPoolExecutor(max_workers=workers - 1)
        try:
            futures = [pool.submit(_timed_chunk, chunk) for chunk in chunks]
            mine = {}
            for i in reversed(range(len(chunks))):
                if not futures[i].cancel():
                    break
                mine[i] = _timed_chunk(chunks[i])
            timed = [t for i, f in enumerate(futures)
                     for t in (mine[i] if i in mine else f.result())]
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        timed = _timed_chunk(tasks)
    cells = [timed[i * reps:(i + 1) * reps] for i in range(len(grid))]
    reports = [[_cell_report(arm, validity[a], n, [(s[a], sec / len(arms)) for s, sec in cell])
                for n, cell in zip(grid, cells)] for a, arm in enumerate(arms)]
    return reports, None if probe is None else timed[last][0][-1]


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> list[RiskReport]:
    """One RiskReport per grid size, from one pool over all of the sweep's
    (n, replication) tasks. Every stream derives from (master seed, n,
    replication), so a cell is the same whatever ``jobs``, the task order
    or the rest of the grid: a single cell is a sweep over a one-n grid.
    A report's ``wall_time_s`` is the sum of its replications' durations."""
    reports, _ = _cell_reports((config,), jobs)
    return reports[0]


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


def default_impossibility_config() -> ExperimentConfig:
    return ExperimentConfig(
        protocol="reg_noabstain",
        scenario_id="sine_1d",
        scenario_params={"noise": 0.1},
        schedule=Schedule(r0=0.5, beta=0.3, c0=2.0),
        n_grid=(10**4, 10**5, 10**6),
        replications=3,
        test_points=2000,
    )


def impossibility_arms(config: ExperimentConfig) -> tuple[ExperimentConfig, ...]:
    """``config`` (reg_noabstain on a 1-d scenario, else a field-named
    ValueError) and its abstention contrast on the same radius schedule."""
    if config.protocol != "reg_noabstain":
        raise ValueError("protocol: the demo runs reg_noabstain")
    if config.scenario().dimension != 1:
        raise ValueError(f"scenario_id: {config.scenario_id} is not one-dimensional")
    schedule = replace(config.schedule, c0=1.0, gamma=0.1)
    return config, replace(config, protocol="reg_abstain", schedule=schedule)


def impossibility_demo(config: ExperimentConfig, jobs: int = 1) -> ImpossibilityReport:
    """Contrast the fixed-amplitude no-abstention estimator against the
    abstention protocol on the same scenario and radius schedule.

    Reports the sweep for both arms, the mean |estimate| over a 101-point
    query grid at the largest n (the collapse toward the constant 0), and
    the predicted MSE plateau E[Y^2] that the no-abstention arm settles at.
    Both arms run in one pass: each replication trains once for the two,
    and replication 0 at the largest n answers the query grid too.
    """
    arms = impossibility_arms(config)
    scenario = config.scenario()
    grid = np.linspace(0.0, 1.0, 101)[:, None]  # sine_1d's support
    reports, values = _cell_reports(arms, jobs, probe=grid)
    noabstain_reports, abstain_reports = map(tuple, reports)
    lstar = scenario.bayes_risk()
    m2 = scenario.second_moment()
    return ImpossibilityReport(
        noabstain_reports=noabstain_reports,
        abstain_reports=abstain_reports,
        grid_mean_abs_estimate=float(np.mean(np.abs(values))),
        terminal_mse=noabstain_reports[-1].risk_mean,
        predicted_plateau_mse=m2,
        predicted_excess_plateau=m2 - lstar,
        bayes_risk=lstar,
    )
