"""Synthetic joint distributions with analytically known Bayes behavior.

Each scenario fixes a joint law of (X, Y) for which the regression
function eta(x) = E[Y | X=x] and the optimal risk are available in closed
form. That makes every simulated network checkable against exact ground
truth.

Catalog (ids accepted by :func:`make_scenario`):

* ``gauss_mix_1d``   -- two unit-variance Gaussians at +-mu, equal priors.
* ``gauss_mix_2d``   -- isotropic Gaussian pair at +-(1,1)/sqrt(2).
* ``checkerboard_2d`` -- uniform X on the unit square, k x k board with a
  piecewise-constant posterior.
* ``sine_1d``        -- uniform X on [0,1], Y = sin(2 pi X) + Gaussian noise.
* ``cityscape_2d``   -- uniform X on the unit square; a binary "toxin"
  indicator, positive where a Gaussian bump field exceeds a threshold,
  observed through label flips.
"""

from __future__ import annotations

import inspect
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np


def check_finite(name: str, value, integer: bool = False) -> None:
    """Raise ``ValueError("<name>: expected a finite number, got ...")``
    unless ``value``, or each entry of a tuple, list or array ``value``, is
    a real number within float range; with ``integer``, also ``"expected an
    integer"`` for one that is not an integer type."""
    entries = np.ravel(value) if isinstance(value, np.ndarray) else value
    for v in entries if isinstance(entries, (tuple, list, np.ndarray)) else (value,):
        # within float range, compared exactly: no NaN, inf or int beyond it
        if not (isinstance(v, numbers.Real) and abs(v) <= sys.float_info.max):
            raise ValueError(f"{name}: expected a finite number, got {v!r}")
        if integer and not isinstance(v, numbers.Integral):
            raise ValueError(f"{name}: expected an integer, got {v!r}")


def in_ball(points, center, radius: float):
    """Closed Euclidean ball membership over the last axis:
    ``sum((x - c)**2) <= r*r``, the squares summed in coordinate order
    (numpy's reduce over a last axis of under 8 adds in order). Every ball
    in the simulator is this one: above one dimension ``predict.flag_counts``
    applies the same arithmetic to its candidates, so engines and
    references agree bit for bit where a point lies on a sphere."""
    diff = np.subtract(points, center, dtype=float)
    return np.add.reduce(diff * diff, axis=-1) <= radius * radius


@dataclass(frozen=True)
class Example:
    """One labeled training pair; ``x`` has shape (d,), ``y`` is 0/1 or real."""

    x: np.ndarray
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        if not np.all(np.isfinite(self.x)) or not math.isfinite(self.y):
            raise ValueError("example coordinates and label must be finite")


class Scenario:
    """Base distribution interface.

    Instances are immutable after construction and safe to share across
    workers; all randomness comes from caller-supplied generators.
    """

    id: str
    dimension: int
    task: str  # "classification" | "regression"

    # -- sampling ---------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int):
        """Draw ``size`` i.i.d. pairs; returns (xs (size,d), ys (size,))."""
        xs = self.sample_x(rng, size)
        return xs, self.sample_y_given_x(xs, rng)

    def sample_x(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError

    def sample_y_given_x(self, xs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Bernoulli(eta(x)) labels, one uniform per row."""
        return (rng.random(xs.shape[0]) < self.eta(xs)).astype(np.int64)

    # -- ground truth -----------------------------------------------------

    def eta(self, xs: np.ndarray) -> np.ndarray:
        """Regression function E[Y | X=x], vectorized over rows of ``xs``."""
        raise NotImplementedError

    def bayes_risk(self) -> float:
        """Optimal risk: E[min(eta, 1 - eta)] or E[Var(Y | X)]."""
        raise NotImplementedError

    def noise_variance(self, xs: np.ndarray) -> np.ndarray:
        """Var(Y | X=x); defined for regression scenarios."""
        raise NotImplementedError(f"{self.id} is not a regression scenario")

    def conditional_second_moment(self, xs: np.ndarray) -> np.ndarray:
        """E[Y^2 | X=x] for regression scenarios."""
        return self.eta(xs) ** 2 + self.noise_variance(xs)

    def second_moment(self) -> float:
        """E[Y^2]; available for regression scenarios."""
        raise NotImplementedError


class GaussianPairScenario(Scenario):
    """Equal-prior pair of isotropic Gaussians at ``+-mu``.

    eta(x) = sigmoid(2 <x, mu> / sigma^2); the optimal rule thresholds the
    projection on mu and errs with probability Phi(-||mu|| / sigma).
    1e-75 <= sigma <= 1e75 and |mu| <= 1e75 keep sigma^2, ||mu||, the
    points' squares and <x, mu> / sigma^2 finite floats.
    """

    task = "classification"

    def __init__(self, id: str, mu: np.ndarray, sigma: float):
        if sigma <= 0:
            raise ValueError("sigma: must be positive")
        if not 1e-75 <= sigma <= 1e75:
            raise ValueError("sigma: must lie in [1e-75, 1e75]")
        self.id = id
        self.mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if np.any(np.abs(self.mu) > 1e75):
            raise ValueError("mu: must be at most 1e75 in absolute value")
        self.dimension = self.mu.shape[0]
        self.sigma = float(sigma)
        if not np.any(self.mu != 0):  # exact: a tiny mean's square underflows
            raise ValueError("mu: class means must be separated")
        self._mu_norm = math.hypot(*self.mu)

    def sample_x(self, rng, size):
        labels = rng.random(size) < 0.5
        signs = np.where(labels, 1.0, -1.0)
        return signs[:, None] * self.mu + self.sigma * rng.standard_normal(
            (size, self.dimension)
        )

    def eta(self, xs):
        z = 2.0 * (xs @ self.mu) / self.sigma**2
        with np.errstate(over="ignore"):  # scipy's expit: 0.0 where exp(-z) overflows
            return 1.0 / (1.0 + np.exp(-z))

    def bayes_risk(self):
        return 0.5 * math.erfc(self._mu_norm / (self.sigma * math.sqrt(2.0)))


class UniformBoxScenario(Scenario):
    """Common machinery for X uniform on the unit box [0,1]^d."""

    def sample_x(self, rng, size):
        return rng.random((size, self.dimension))

    def direct_conditional_x(self, centers, radius, rng):
        """One X per row of ``centers`` from P_X given X in the ball, or NaN
        rows and no draw at a radius that is not positive. Centers must lie
        in the closed unit box, else ``ValueError("centers: ...")``."""
        # Uniform X conditioned on a ball is uniform on ball-intersect-box:
        # propose uniformly in the clipped bounding box, accept inside the
        # ball. A center in the box keeps acceptance bounded below (~pi/4
        # in 2-d), so a handful of rounds settles every row.
        n, d = centers.shape
        if not (centers.min(initial=0.0) >= 0.0 and centers.max(initial=1.0) <= 1.0):
            raise ValueError("centers: must lie in the closed unit box [0, 1]^d")
        if not radius > 0:  # a NaN radius trains none too
            return np.full((n, d), np.nan)
        lo = np.clip(centers - radius, 0.0, 1.0)
        span = np.clip(centers + radius, 0.0, 1.0) - lo
        xs = lo + rng.random((n, d)) * span  # round one: every row, no gathers
        pending = np.flatnonzero(~in_ball(xs, centers, radius))
        while pending.size:
            prop = lo[pending] + rng.random((pending.size, d)) * span[pending]
            ok = in_ball(prop, centers[pending], radius)
            xs[pending[ok]] = prop[ok]
            pending = pending[~ok]
        return xs


class CheckerboardScenario(UniformBoxScenario):
    """k x k checkerboard on the unit square with two posterior levels.

    Cells where floor(k x1) + floor(k x2) is even carry P(Y=1|x) = p_on,
    odd cells carry p_off. k is at most 2**53, up to which a float holds
    every integer, so that each cell index floor(k x) fits an int64.
    """

    task = "classification"
    dimension = 2

    def __init__(self, k: int = 4, p_on: float = 0.8, p_off: float = 0.2):
        if k < 1 or k != int(k):
            raise ValueError("k: must be an integer >= 1")
        if k > 2**53:
            raise ValueError("k: must be at most 2**53")
        for name, level in (("p_on", p_on), ("p_off", p_off)):
            if not 0 <= level <= 1:
                raise ValueError(f"{name}: posterior level must lie in [0,1]")
        self.id = "checkerboard_2d"
        self.k = int(k)
        self.p_on = float(p_on)
        self.p_off = float(p_off)

    def eta(self, xs):
        cells = np.clip((xs * self.k).astype(np.int64), 0, self.k - 1)
        even = (cells.sum(axis=1) % 2) == 0
        return np.where(even, self.p_on, self.p_off)

    def bayes_risk(self):
        k2 = self.k * self.k
        w_on = math.ceil(k2 / 2) / k2  # even-parity cells (one extra if k odd)
        return w_on * min(self.p_on, 1 - self.p_on) + (1 - w_on) * min(
            self.p_off, 1 - self.p_off
        )


class CityscapeScenario(UniformBoxScenario):
    """Binary field over the unit square observed through label flips.

    A Gaussian bump field exp(-||x-center||^2 / (2 spread^2)) marks the
    positive zone where it exceeds ``threshold`` (a disc); labels flip with
    probability ``flip``, so eta is 1-flip inside the disc and flip outside.
    Center coordinates of at most 1e75 in absolute value keep the squared
    distances of ``in_ball`` finite floats.
    """

    task = "classification"
    dimension = 2

    def __init__(
        self,
        center=(0.5, 0.5),
        spread: float = 0.2,
        threshold: float = 0.5,
        flip: float = 0.1,
    ):
        if np.shape(center) != (2,):
            raise ValueError("center: expected 2 coordinates")
        if np.any(np.abs(center) > 1e75):
            raise ValueError("center: coordinates must be at most 1e75 in absolute value")
        if not (0 < threshold < 1):
            raise ValueError("threshold: must lie strictly in (0,1)")
        if spread <= 0:
            raise ValueError("spread: must be positive")
        if not (0 <= flip <= 1):
            raise ValueError("flip: probability must lie in [0,1]")
        self.id = "cityscape_2d"
        self.center = np.asarray(center, dtype=float)
        self.spread = float(spread)
        self.threshold = float(threshold)
        self.flip = float(flip)
        self.zone_radius = self.spread * math.sqrt(2.0 * math.log(1.0 / self.threshold))

    def eta(self, xs):
        inside = in_ball(xs, self.center, self.zone_radius)
        return np.where(inside, 1.0 - self.flip, self.flip)

    def bayes_risk(self):
        return min(self.flip, 1 - self.flip)


class SineScenario(UniformBoxScenario):
    """Regression: X uniform on [0,1], Y = sin(2 pi X) + N(0, noise^2);
    noise <= 1e75 keeps the risks' variance (order noise^4) a finite float."""

    task = "regression"
    dimension = 1

    def __init__(self, noise: float = 0.1):
        if noise < 0:
            raise ValueError("noise: must be nonnegative")
        if noise > 1e75:
            raise ValueError("noise: must be at most 1e75")
        self.id = "sine_1d"
        self.noise = float(noise)

    def sample_y_given_x(self, xs, rng):
        return self.eta(xs) + self.noise * rng.standard_normal(xs.shape[0])

    def eta(self, xs):
        return np.sin(2.0 * math.pi * xs[:, 0])

    def noise_variance(self, xs):
        return np.full(xs.shape[0], self.noise**2)

    def bayes_risk(self):
        return self.noise**2

    def second_moment(self):
        # integral of sin^2 over one period is 1/2
        return 0.5 + self.noise**2


_CATALOG = {
    "gauss_mix_1d": lambda mu=1.0, sigma=1.0: GaussianPairScenario(
        "gauss_mix_1d", [float(mu)], sigma
    ),
    "gauss_mix_2d": lambda sigma=1.0: GaussianPairScenario(
        "gauss_mix_2d", np.array([1.0, 1.0]) / math.sqrt(2.0), sigma
    ),
    "checkerboard_2d": CheckerboardScenario,
    "sine_1d": SineScenario,
    "cityscape_2d": CityscapeScenario,
}

SCENARIO_IDS = tuple(sorted(_CATALOG))

# each entry's keyword parameters, read once: ``inspect.signature`` costs
# tens of microseconds, and every replication builds its scenario
_PARAMETERS = {sid: inspect.signature(f).parameters for sid, f in _CATALOG.items()}


def scenario_parameters(scenario_id: str) -> tuple[str, ...]:
    """Keyword parameters ``make_scenario`` accepts for ``scenario_id``;
    ``ValueError("scenario_id: ...")`` for an id outside the catalog."""
    if scenario_id not in _CATALOG:
        raise ValueError(
            f"scenario_id: unknown {scenario_id!r}; known: {', '.join(SCENARIO_IDS)}"
        )
    return tuple(_PARAMETERS[scenario_id])


def make_scenario(scenario_id: str, **params) -> Scenario:
    """Instantiate a catalog scenario by id with keyword parameters.

    Every rejected parameter raises ``ValueError("<name>: <reason>")``: an
    unknown name, a sequence where the default is a number, a value that
    is not a finite number (or a tuple of them), or one the scenario's own
    range checks refuse.
    """
    known = scenario_parameters(scenario_id)
    defaults = _PARAMETERS[scenario_id]
    for name, value in params.items():
        if name not in known:
            raise ValueError(
                f"{name}: unknown parameter for {scenario_id}; known: {', '.join(known)}"
            )
        sequence = isinstance(value, (tuple, list)) or getattr(value, "ndim", 0)
        if sequence and not isinstance(defaults[name].default, tuple):
            raise ValueError(f"{name}: expected one number, got {value!r}")
        check_finite(name, value)
    return _CATALOG[scenario_id](**params)


# ---------------------------------------------------------------------------
# operations


def sample_conditional_batch(
    scenario: Scenario,
    centers: np.ndarray,
    radius: float,
    rng: np.random.Generator,
):
    """Per-row conditional draws: one (X, Y) per center, shared radius,
    from the unit-box scenario's ``direct_conditional_x``.

    Returns (xs, ys, untrainable_mask) with float labels. The sampler
    trains every row or, for a radius that is not positive, none: then
    every row holds NaN and no label is drawn.
    """
    xs = scenario.direct_conditional_x(centers, radius, rng)
    untrainable = np.full(len(xs), not radius > 0)  # the radius alone decides
    if untrainable.all():
        return xs, np.full(len(xs), np.nan), untrainable
    return xs, scenario.sample_y_given_x(xs, rng).astype(float, copy=False), untrainable


def regression_function(scenario: Scenario, x) -> float:
    """eta(x) = E[Y | X=x] in closed form."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(scenario.eta(x[None, :])[0])


def bayes_classifier(scenario: Scenario, x) -> int:
    """Optimal label: 1 iff eta(x) >= 1/2 (ties resolve to 1)."""
    if scenario.task != "classification":
        raise ValueError(f"{scenario.id} is not a classification scenario")
    return int(regression_function(scenario, x) >= 0.5)
