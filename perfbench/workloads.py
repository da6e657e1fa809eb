"""The benchmark's workloads: a CLI command, its generated config, and what
its output must satisfy.

Each workload stresses a different layer, so that a change to one layer has
a workload that exercises it and one that bypasses it:

* ``impossibility_1d``: coin hashing and 1-d pair enumeration; no KD-tree,
  no conditional sampling, no pool.
* ``specialists_2d``: KD-tree build and ball queries, Python pair
  concatenation and conditional sampling; no coins, no pool.
* ``small_cells_jobs2``: one process pool per cell dominates; each cell's
  own work is tiny.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


def _strictly_decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:]))


def _criterion_6(rows: list[dict], manifest: dict) -> list[str]:
    """The impossibility demonstration: the no-abstention estimate
    collapses toward 0 and its MSE plateaus at E[Y^2], while the abstention
    twin converges."""
    summary = manifest["summary"]
    terminal = {
        protocol: float(max(
            (r for r in rows if r["protocol"] == protocol), key=lambda r: int(r["n"])
        )["excess_risk"])
        for protocol in ("reg_noabstain", "reg_abstain")
    }
    failures = []
    if not summary["grid_mean_abs_estimate"] <= 0.05:
        failures.append(f"mean |estimate| {summary['grid_mean_abs_estimate']} > 0.05")
    if not abs(summary["terminal_mse"] - summary["predicted_plateau_mse"]) <= 0.05:
        failures.append(
            f"terminal MSE {summary['terminal_mse']} is not within 0.05 of "
            f"the plateau {summary['predicted_plateau_mse']}"
        )
    if not terminal["reg_abstain"] <= 0.05:
        failures.append(f"abstention terminal excess {terminal['reg_abstain']} > 0.05")
    if not terminal["reg_noabstain"] >= 0.25:
        failures.append(
            f"no-abstention terminal excess {terminal['reg_noabstain']} < 0.25"
        )
    return failures


def _criterion_7(rows: list[dict], manifest: dict) -> list[str]:
    """Specialists: excess risk strictly decreasing in n, terminal <= 0.05."""
    excess = [float(r["excess_risk"]) for r in rows]
    failures = []
    if not _strictly_decreasing(excess):
        failures.append(f"excess risk {excess} is not strictly decreasing")
    if not excess[-1] <= 0.05:
        failures.append(f"terminal excess {excess[-1]} > 0.05")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # onebit-sim subcommand
    stem: str  # output files are <stem>.csv and <stem>.json
    jobs: int
    protocols: tuple[str, ...]
    n_grid: tuple[int, ...]
    keys: dict = field(default_factory=dict)  # config keys besides the seed
    accept: Callable[[list[dict], dict], list[str]] = lambda rows, manifest: []

    def config_text(self, seed: int) -> str:
        lines = [f"[{self.command}]"]
        lines += [f"{key} = {value}" for key, value in self.keys.items()]
        lines.append(f"seed = {seed}")
        return "\n".join(lines) + "\n"

    def argv(self, config: str, out: str) -> list[str]:
        return [self.command, "--config", config, "--out", out, "--jobs", str(self.jobs)]

    @property
    def cells(self) -> list[tuple[str, int]]:
        return [(p, n) for p in self.protocols for n in self.n_grid]


# The criterion-7 grid without n = 1e5: that cell alone takes about 10 s,
# which leaves one or two sweeps per run and makes the median as noisy as
# the host. Up to 1e4 the KD-tree query is still the largest layer.
_SPECIALISTS_GRID = (10**2, 10**3, 10**4)
# 40 cells from n=100 to n=4000, log-spaced.
_SMALL_GRID = tuple(round(100 * 40 ** (k / 39)) for k in range(40))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="impossibility_1d",
            why=(
                "demo-impossibility at its defaults (n up to 1e6, 1-d): coin "
                "hashing and 1-d pair enumeration do the work; no KD-tree, "
                "no conditional sampling, no pool"
            ),
            command="demo-impossibility",
            stem="demo_impossibility",
            jobs=1,
            protocols=("reg_noabstain", "reg_abstain"),
            n_grid=(10**4, 10**5, 10**6),
            accept=_criterion_6,
        ),
        Workload(
            name="specialists_2d",
            why=(
                "criterion-7 sweep (specialists on cityscape_2d, n up to 1e4): "
                "KD-tree, pair concatenation and conditional sampling do the "
                "work; no coins are hashed, no pool"
            ),
            command="sweep",
            stem="sweep",
            jobs=1,
            protocols=("specialists",),
            n_grid=_SPECIALISTS_GRID,
            keys={
                "protocol": "specialists",
                "scenario": "cityscape_2d",
                "n_grid": ", ".join(map(str, _SPECIALISTS_GRID)),
                "r0": 0.5,
                "beta": 0.2,
                "replications": 20,
                "test_points": 2000,
            },
            accept=_criterion_7,
        ),
        Workload(
            name="small_cells_jobs2",
            why=(
                "40 tiny cls_abstain cells (n <= 4000, 200 test points) with "
                "--jobs 2: starting a process pool per cell dominates; the "
                "serial workloads bypass the pool"
            ),
            command="sweep",
            stem="sweep",
            jobs=2,
            protocols=("cls_abstain",),
            n_grid=_SMALL_GRID,
            keys={
                "protocol": "cls_abstain",
                "scenario": "gauss_mix_1d",
                "n_grid": ", ".join(map(str, _SMALL_GRID)),
                # Balls this small keep every cell's excess risk well above
                # 0. Near the Bayes risk (r0 = 0.5) the harness's -3*SE
                # guard fires on a quarter or more of such 40-cell sweeps.
                "r0": 0.05,
                "beta": 0.3,
                "replications": 4,
                "test_points": 200,
            },
        ),
    )
}
