"""Centralized reference rules used to validate the distributed protocols.

Two kinds of oracle live here: the plug-in naive-kernel classifier that
the abstention network must reproduce exactly, and the exact law of the vote
count for randomized networks (a Poisson-binomial distribution), which
turns conditional error probabilities into closed-form sums that Monte
Carlo runs can be checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .scenarios import Example, Scenario, in_ball, regression_function

if TYPE_CHECKING:  # pragma: no cover
    from .harness import NetworkState


def naive_kernel_classify(train: Sequence[Example], x, r: float, default_label: int = 0) -> int:
    """Plug-in rule with the indicator kernel: majority label (ties to 1)
    among training points within r of x; an empty ball yields the default."""
    votes = 0
    total = 0
    for ex in train:
        if in_ball(x, ex.x, r):
            total += 1
            votes += int(ex.y)
    if total == 0:
        return default_label
    return 1 if 2 * votes >= total else 0


@dataclass(frozen=True)
class VoteDistribution:
    """Exact law of the number of vote-1 responses among n sensors."""

    pmf: np.ndarray
    n: int

    def __post_init__(self):
        if self.pmf.shape != (self.n + 1,):
            raise ValueError("pmf must have length n+1")
        if np.any(self.pmf < 0):
            raise ValueError("pmf entries must be nonnegative")
        total = math.fsum(self.pmf.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pmf sums to {total!r}, expected 1 within 1e-12")

    def prob_majority(self) -> float:
        """P(count > n/2), the strict-majority event."""
        first = self.n // 2 + 1
        return float(math.fsum(self.pmf[first:].tolist()))


def exact_vote_distribution(p: Sequence[float]) -> VoteDistribution:
    """Poisson-binomial pmf of a sum of independent Bernoulli votes.

    The O(n^2) convolution recurrence is exact up to float rounding and
    keeps normalization to ~1e-12 even at n = 10^4; deterministic sensors
    enter with p_i in {0, 1}.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("p must be a 1-d sequence of probabilities")
    if np.any((p < 0) | (p > 1)):
        raise ValueError("vote probabilities must lie in [0,1]")
    pmf = np.zeros(p.size + 1)
    pmf[0] = 1.0
    for i, pi in enumerate(p):
        prev = pmf[: i + 1].copy()
        pmf[: i + 1] = prev * (1.0 - pi)
        pmf[1 : i + 2] += prev * pi
    return VoteDistribution(pmf=pmf, n=p.size)


def exact_conditional_error_at_x(network: "NetworkState", scenario: Scenario, x) -> float:
    """Exact conditional risk at a fixed query, given the trained network.

    For classification without abstention (fresh coins per query) this is
    the misclassification probability; for the regression protocols it is
    the conditional mean squared error, both computed from the exact vote
    distribution rather than simulation.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    eta = regression_function(scenario, x)
    inside = in_ball(network.xs, x, network.r_n)
    if network.protocol == "cls_noabstain":
        if network.fixed_coins is not None:
            raise ValueError(
                "exact conditional error needs per_query coins for cls_noabstain"
            )
        p = np.where(inside, network.ys.astype(float), 0.5)
        dist = exact_vote_distribution(p)
        p_vote1 = dist.prob_majority()
        return p_vote1 * (1.0 - eta) + (1.0 - p_vote1) * eta

    # the regression rules differ only in who votes and with what bias
    c = network.c_n
    if network.protocol == "reg_abstain":
        ys = network.ys[inside]
        p = np.where(np.abs(ys) <= c, ys / (2.0 * c) + 0.5, 0.5)
    elif network.protocol == "reg_noabstain":
        p = np.where(inside, np.clip(network.ys / (2.0 * c) + 0.5, 0.0, 1.0), 0.5)
    else:
        raise ValueError(f"exact conditional error is not defined for {network.protocol!r}")
    m2 = float(scenario.conditional_second_moment(x[None, :])[0])
    if p.size == 0:
        return m2  # no sensor votes: the estimate is the default 0
    dist = exact_vote_distribution(p)
    estimates = 2.0 * c * (np.arange(p.size + 1) / p.size - 0.5)
    return float(np.sum(dist.pmf * (estimates**2 - 2.0 * estimates * eta)) + m2)
