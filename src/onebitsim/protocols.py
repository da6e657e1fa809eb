"""Sensor decision rules, fusion rules, and bandwidth schedules.

Five protocols, identified by the strings in :data:`PROTOCOLS`:

* ``cls_abstain``    -- vote the stored label when the query falls in the
  sensor's ball, otherwise abstain; fusion is the vote-fraction >= 1/2
  majority (ties go to 1).
* ``cls_noabstain``  -- same informative branch, but silent sensors must
  guess with a fair coin fixed at training time; fusion is the strict
  majority over all n votes (ties go to 0).
* ``reg_abstain``    -- in-ball sensors encode their real label in a coin
  bias (y / 2c + 1/2, censored to a fair coin when |y| > c); fusion shifts
  and scales the vote fraction back into label units.
* ``reg_noabstain``  -- in-ball sensors vote with the clipped bias
  clip(y / 2c + 1/2) at the fixed amplitude c = c_n (gamma = 0 or a clamp),
  the rest guess with a fair coin; the scaled-mean fusion rule is
  permutation invariant and 2c-Lipschitz in the average Hamming distance.
* ``specialists``    -- sensors own a random region, train on data
  conditioned to that region, and vote only for queries inside it.

The tie conventions differ on purpose between the >= 1/2 rules and the
strict > 1/2 rule; tests pin them.

:func:`protocol_spec` looks a protocol up in the one table that defines it:
its task, whether it abstains, whether its sensors own regions and its
schedule condition. ``predict`` keeps each protocol's batch engine, as
``verify`` keeps its scalar reference.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .scenarios import Example, check_finite, in_ball

COIN_MODES = ("per_sensor", "per_query")


class ScheduleViolationWarning(UserWarning):
    """A run was configured outside the sufficient consistency conditions."""


class ProtocolViolationError(ValueError):
    """A fusion rule received responses its protocol cannot produce."""


class Response(enum.Enum):
    VOTE0 = "vote0"
    VOTE1 = "vote1"
    ABSTAIN = "abstain"

    @property
    def is_vote(self) -> bool:
        return self is not Response.ABSTAIN

    @property
    def vote(self) -> int:
        if self is Response.ABSTAIN:
            raise ValueError("abstention carries no vote")
        return 1 if self is Response.VOTE1 else 0


def vote_response(label) -> Response:
    if label not in (0, 1):
        raise ValueError(f"vote label must be 0 or 1, got {label!r}")
    return Response.VOTE1 if label == 1 else Response.VOTE0


def check_coin_mode(coin_mode: str) -> None:
    if coin_mode not in COIN_MODES:
        raise ValueError(
            f"coin_mode: unknown {coin_mode!r}; known: {', '.join(COIN_MODES)}"
        )


@dataclass(frozen=True)
class Schedule:
    """Power-law bandwidth and amplitude sequences.

    r_n = r0 * n^(-beta) shrinks the ball radius; c_n = c0 * n^gamma grows
    the label amplitude bound, unless ``clamp`` pins c_n to a constant
    (valid when |Y| is known to be bounded by it). Both regression rules
    encode at c_n; gamma = 0 or a clamp gives ``reg_noabstain`` a fixed c.
    """

    r0: float
    beta: float
    c0: float = 1.0
    gamma: float = 0.0
    clamp: Optional[float] = None

    def __post_init__(self):
        for name in ("r0", "beta", "c0", "gamma", "clamp"):
            if getattr(self, name) is not None:  # only clamp may be unset
                check_finite(name, getattr(self, name))
        if self.r0 <= 0:
            raise ValueError("r0: must be positive")
        if self.beta < 0:
            raise ValueError("beta: must be >= 0 (r_n may not grow)")
        if self.c0 <= 0:
            raise ValueError("c0: must be positive")
        if self.gamma < 0:
            raise ValueError("gamma: must be >= 0 (c_n may not shrink)")
        if self.clamp is not None and self.clamp <= 0:
            raise ValueError("clamp: must be positive when set")


def schedule_eval(schedule: Schedule, n: int) -> tuple[float, float]:
    """(r_n, c_n) at network size n >= 1."""
    if n < 1:
        raise ValueError("schedule is defined for n >= 1")
    r_n = schedule.r0 * float(n) ** -schedule.beta
    if schedule.clamp is not None:
        c_n = schedule.clamp
    else:
        c_n = schedule.c0 * float(n) ** schedule.gamma
    return r_n, c_n


SATISFIES = "satisfies"
VIOLATES = "violates"
ALWAYS_INCONSISTENT = "always_inconsistent"


@dataclass(frozen=True)
class ScheduleVerdict:
    """Outcome of checking a schedule against sufficient conditions.

    A violation does not prove inconsistency -- the conditions are
    sufficient only -- except for regression without abstention, which no
    schedule can rescue.
    """

    status: str
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == SATISFIES


def _beta_d_below(limit: float, text: str):
    """The condition beta*d < limit."""
    return lambda schedule, bd: f"beta*d = {bd:g} >= {text}" if bd >= limit else None


def _amplitude_condition(schedule: Schedule, bd: float) -> Optional[str]:
    """c_n diverges (or is clamped) and 2*gamma + beta*d < 1."""
    if schedule.clamp is None and schedule.gamma <= 0:
        return "c_n must diverge (gamma > 0) unless clamp bounds |Y|"
    eff_gamma = 0.0 if schedule.clamp is not None else schedule.gamma
    total = 2 * eff_gamma + bd
    if total >= 1:
        return f"2*gamma + beta*d = {total:g} >= 1"
    return None


@dataclass(frozen=True)
class ProtocolSpec:
    """What the simulator knows about one protocol.

    ``schedule_condition(schedule, beta*d)`` returns why a schedule with a
    shrinking radius falls outside the protocol's sufficient consistency
    conditions, or None when it meets them; a protocol that no schedule
    makes consistent has none. ``regions`` marks the model in which
    sensors own random regions.
    """

    task: str
    abstains: bool
    schedule_condition: Optional[Callable[[Schedule, float], Optional[str]]]
    regions: bool = False

    @property
    def bits_per_query(self) -> float:
        """log2(3) with abstention (3-symbol alphabet), 1.0 without."""
        return math.log2(3.0) if self.abstains else 1.0


# task, abstains, schedule condition
_SPECS = {
    "cls_abstain": ProtocolSpec("classification", True, _beta_d_below(1, "1")),
    "cls_noabstain": ProtocolSpec("classification", False, _beta_d_below(0.5, "1/2")),
    "reg_abstain": ProtocolSpec("regression", True, _amplitude_condition),
    "reg_noabstain": ProtocolSpec("regression", False, None),
    "specialists": ProtocolSpec("classification", True, _beta_d_below(1, "1"), regions=True),
}

PROTOCOLS = tuple(_SPECS)


def protocol_spec(protocol: str) -> ProtocolSpec:
    """The table entry for ``protocol``; ValueError when there is none."""
    try:
        return _SPECS[protocol]
    except KeyError:
        raise ValueError(
            f"protocol: unknown {protocol!r}; known: {', '.join(PROTOCOLS)}"
        ) from None


def validate_schedule(schedule: Schedule, protocol: str, d: int) -> ScheduleVerdict:
    """Check the power-law exponents against a protocol's sufficient
    consistency conditions in dimension d."""
    condition = protocol_spec(protocol).schedule_condition
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if condition is None:
        return ScheduleVerdict(
            ALWAYS_INCONSISTENT,
            "no permutation-invariant fusion rule that is Lipschitz in the "
            "average Hamming distance is universally consistent here",
        )
    if schedule.beta <= 0:
        return ScheduleVerdict(VIOLATES, "beta = 0: r_n does not shrink")
    reason = condition(schedule, schedule.beta * d)
    return ScheduleVerdict(SATISFIES if reason is None else VIOLATES, reason)


@dataclass(frozen=True)
class SensorState:
    """One sensor's stored training datum plus protocol-specific extras.

    ``datum`` is None for a sensor whose region could not be trained;
    ``region_center`` is set for specialists; ``fixed_coin`` is the
    training-time coin realization for classification without abstention.
    """

    datum: Optional[Example]
    region_center: Optional[np.ndarray] = None
    fixed_coin: Optional[int] = None


@dataclass(frozen=True)
class NetworkState:
    """A trained network: one stored datum per sensor plus schedule values
    (``c_n`` is both regression rules' amplitude). Its size ``n`` is the
    number of rows of ``xs``. ``fixed_coins`` is None where a fresh coin
    answers each query, and ``centers`` for every protocol but specialists.
    Treated as immutable after training; answering queries never mutates
    it, so it is safe to share across evaluation workers.
    """

    protocol: str
    r_n: float
    c_n: float
    xs: np.ndarray
    ys: np.ndarray
    fixed_coins: Optional[np.ndarray] = None
    centers: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return len(self.xs)

    @property
    def dimension(self) -> int:
        return self.xs.shape[1]

    @property
    def trained(self) -> bool:
        """False only for specialists at a radius that is not positive: every
        center lies in the unit box, so each region holds mass iff r_n > 0."""
        return self.centers is None or self.r_n > 0

    def sensor(self, i: int) -> SensorState:
        """Per-sensor view for the scalar protocol operations."""
        datum = Example(self.xs[i], float(self.ys[i])) if self.trained else None
        center = None if self.centers is None else self.centers[i]
        coin = None if self.fixed_coins is None else int(self.fixed_coins[i])
        return SensorState(datum=datum, region_center=center, fixed_coin=coin)


def _require_datum(sensor: SensorState) -> Example:
    if sensor.datum is None:
        raise ValueError("sensor has no training datum")
    return sensor.datum


# ---------------------------------------------------------------------------
# classification with abstention


def respond_cls_abstain(sensor: SensorState, query_x, r_n: float) -> Response:
    """Vote the stored label if the training point lies within r_n of the
    query, otherwise abstain."""
    datum = _require_datum(sensor)
    if in_ball(datum.x, query_x, r_n):
        return vote_response(datum.y)
    return Response.ABSTAIN


def fuse_cls_abstain(responses: Sequence[Response], default_label: int = 0) -> int:
    """Majority over the non-abstaining votes; a vote-1 fraction of exactly
    1/2 resolves to 1. All-abstain falls back to the default label."""
    votes = [r.vote for r in responses if r.is_vote]
    if not votes:
        return default_label
    return 1 if 2 * sum(votes) >= len(votes) else 0


# ---------------------------------------------------------------------------
# classification without abstention


def respond_cls_noabstain(sensor: SensorState, query_x, r_n: float) -> Response:
    """Informative vote inside the ball; outside it, replay the sensor's
    fixed fair-coin realization (the same guess on every query)."""
    datum = _require_datum(sensor)
    if in_ball(datum.x, query_x, r_n):
        return vote_response(datum.y)
    if sensor.fixed_coin is None:
        raise ValueError("sensor has no fixed coin; draw one at training time")
    return vote_response(sensor.fixed_coin)


def fuse_cls_noabstain(responses: Sequence[Response]) -> int:
    """Strict majority over all votes: 1 only if the mean vote exceeds 1/2,
    so an exact tie resolves to 0 (note the asymmetry with the abstention
    rule's >= 1/2)."""
    n = len(responses)
    total = 0
    for r in responses:
        if not r.is_vote:
            raise ProtocolViolationError("abstention is not allowed here")
        total += r.vote
    return 1 if 2 * total > n else 0


# ---------------------------------------------------------------------------
# regression with abstention


def respond_reg_abstain(
    sensor: SensorState, query_x, r_n: float, c_n: float, coin: float
) -> Response:
    """Encode the real label in a coin bias of y/(2 c_n) + 1/2.

    Labels beyond the amplitude bound are censored to a fair coin; a query
    outside the sensor's ball draws an abstention. ``coin`` is one uniform
    [0,1) variate, fresh per (sensor, query).
    """
    if c_n <= 0:
        raise ValueError("c_n must be positive")
    datum = _require_datum(sensor)
    if not in_ball(query_x, datum.x, r_n):
        return Response.ABSTAIN
    if abs(datum.y) <= c_n:
        bias = datum.y / (2.0 * c_n) + 0.5
    else:
        bias = 0.5
    return Response.VOTE1 if coin < bias else Response.VOTE0


def fuse_reg_abstain(responses: Sequence[Response], c_n: float) -> float:
    """Decode the vote fraction back into label units:
    2 c_n (vote fraction - 1/2). All-abstain yields 0.0."""
    votes = [r.vote for r in responses if r.is_vote]
    if not votes:
        return 0.0
    return 2.0 * c_n * (sum(votes) / len(votes) - 0.5)


# ---------------------------------------------------------------------------
# regression without abstention


def respond_reg_noabstain(
    sensor: SensorState, query_x, r_n: float, c: float, coin: float
) -> Response:
    """Vote 1 with the clip-ball probability; never abstain.

    Inside the radius-r_n ball the bias is clip(y / (2c) + 1/2, 0, 1) with
    a fixed amplitude c; outside it is a fair guess. As r_n shrinks with n
    this rule converges pointwise, which is what makes it the canonical
    no-go demonstration. ``coin`` is one uniform [0,1) variate, fresh per
    (sensor, query).
    """
    if c <= 0:
        raise ValueError("amplitude c must be positive")
    datum = _require_datum(sensor)
    bias = 0.5
    if in_ball(query_x, datum.x, r_n):
        bias = min(1.0, max(0.0, datum.y / (2.0 * c) + 0.5))
    return Response.VOTE1 if coin < bias else Response.VOTE0


def fuse_reg_noabstain_scaledmean(responses: Sequence[Response], c: float) -> float:
    """2c (mean vote - 1/2): permutation invariant (it sees only the vote
    count) and Lipschitz with constant 2c in the average Hamming distance."""
    n = len(responses)
    if n == 0:
        return 0.0
    total = 0
    for r in responses:
        if not r.is_vote:
            raise ProtocolViolationError("abstention is not allowed here")
        total += r.vote
    return 2.0 * c * (total / n - 0.5)


# ---------------------------------------------------------------------------
# specialists


def respond_specialist(sensor: SensorState, query_x, r_n: float) -> Response:
    """Vote the stored label iff the query falls in the sensor's own region
    (centered at its assigned point, not at its training point). Sensors
    whose region could not be trained abstain permanently."""
    if sensor.region_center is None:
        raise ValueError("specialist sensor has no region center")
    if sensor.datum is not None and in_ball(query_x, sensor.region_center, r_n):
        return vote_response(sensor.datum.y)
    return Response.ABSTAIN


# a specialist fusion center takes the abstention rule's majority over the
# responders (ties to 1; no responders falls back to the default label)
fuse_specialist = fuse_cls_abstain
