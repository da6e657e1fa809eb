"""Built-in self-check suites behind the ``verify`` command.

Each suite cross-checks one load-bearing equivalence with an independent
oracle and reports pass/fail; the CLI exits nonzero if any suite fails.
``scalar_predict`` is the exact reference for all five protocols, so
``batch_engine`` holds the batch engines to it bit for bit and runs no
statistical check. Suites resolve protocol functions and
``predict_batch`` through their modules at call time so a deliberately
broken rule (a test fixture) is picked up.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import oracle, predict, protocols
from .harness import check_compatible, train_network
from .protocols import COIN_MODES, PROTOCOLS, Response, Schedule, SensorState
from .scenarios import SCENARIO_IDS, Example, make_scenario
from .seeding import CoinSource


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _suite_theorem1_equivalence() -> SuiteResult:
    """Distributed abstention votes fused by majority must equal the
    centralized naive-kernel classifier on every query, exactly."""
    rng = np.random.default_rng(2024)
    trials = 0
    for case in range(150):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 200))
        r = float(rng.uniform(0.01, 0.8))
        xs = rng.uniform(-1, 1, size=(n, d))
        ys = rng.integers(0, 2, size=n)
        train = [Example(xs[i], int(ys[i])) for i in range(n)]
        sensors = [SensorState(ex) for ex in train]
        for x in rng.uniform(-1, 1, size=(4, d)):
            responses = [
                protocols.respond_cls_abstain(s, x, r) for s in sensors
            ]
            fused = protocols.fuse_cls_abstain(responses)
            reference = oracle.naive_kernel_classify(train, x, r)
            trials += 1
            if fused != reference:
                return SuiteResult(
                    "theorem1_equivalence",
                    False,
                    f"mismatch in case {case}: fused={fused} kernel={reference}",
                )
    return SuiteResult(
        "theorem1_equivalence", True, f"{trials} query evaluations, 0 mismatches"
    )


def _suite_poisson_binomial() -> SuiteResult:
    """Convolution recurrence vs brute-force enumeration over all vote
    patterns, plus normalization at scale."""
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 8, 10):
        p = rng.random(n)
        pmf = oracle.exact_vote_distribution(p).pmf
        brute = np.zeros(n + 1)
        for bits in itertools.product((0, 1), repeat=n):
            prob = math.prod(p[i] if b else 1 - p[i] for i, b in enumerate(bits))
            brute[sum(bits)] += prob
        if np.max(np.abs(pmf - brute)) > 1e-12:
            return SuiteResult(
                "poisson_binomial_enumeration",
                False,
                f"n={n}: max pmf error {np.max(np.abs(pmf - brute)):.3e}",
            )
    big = oracle.exact_vote_distribution(rng.random(2000))
    drift = abs(math.fsum(big.pmf.tolist()) - 1.0)
    if drift > 1e-12:
        return SuiteResult(
            "poisson_binomial_enumeration",
            False,
            f"normalization drift {drift:.3e} at n=2000",
        )
    return SuiteResult(
        "poisson_binomial_enumeration", True, "matches enumeration within 1e-12"
    )


def _suite_fusion_properties() -> SuiteResult:
    """Permutation invariance, the scaled-mean Lipschitz bound, and the
    two tie-break conventions."""
    rng = np.random.default_rng(11)
    tie = [Response.VOTE1, Response.VOTE0]
    if protocols.fuse_cls_abstain(tie) != 1:
        return SuiteResult("fusion_properties", False, "vote-fraction tie must fuse to 1")
    if protocols.fuse_cls_noabstain(tie) != 0:
        return SuiteResult("fusion_properties", False, "strict-majority tie must fuse to 0")
    symbols = [Response.VOTE0, Response.VOTE1, Response.ABSTAIN]
    for _ in range(400):
        resp = [symbols[i] for i in rng.integers(0, 3, size=rng.integers(0, 25))]
        votes_only = [r for r in resp if r.is_vote]
        perm = list(resp)
        rng.shuffle(perm)
        perm_votes = [r for r in perm if r.is_vote]
        if protocols.fuse_cls_abstain(resp) != protocols.fuse_cls_abstain(perm):
            return SuiteResult("fusion_properties", False, "abstention fusion not permutation invariant")
        if protocols.fuse_reg_abstain(resp, 2.0) != protocols.fuse_reg_abstain(perm, 2.0):
            return SuiteResult("fusion_properties", False, "regression fusion not permutation invariant")
        if protocols.fuse_cls_noabstain(votes_only) != protocols.fuse_cls_noabstain(perm_votes):
            return SuiteResult("fusion_properties", False, "majority fusion not permutation invariant")
    c = 1.5
    for _ in range(400):
        n = int(rng.integers(1, 400))
        b1 = rng.integers(0, 2, size=n)
        b2 = rng.integers(0, 2, size=n)
        r1 = [Response.VOTE1 if b else Response.VOTE0 for b in b1]
        r2 = [Response.VOTE1 if b else Response.VOTE0 for b in b2]
        gap = abs(
            protocols.fuse_reg_noabstain_scaledmean(r1, c)
            - protocols.fuse_reg_noabstain_scaledmean(r2, c)
        )
        bound = 2 * c * np.sum(b1 != b2) / n
        if gap > bound + 1e-12:
            return SuiteResult(
                "fusion_properties",
                False,
                f"Lipschitz bound violated: gap {gap:.6f} > {bound:.6f}",
            )
    return SuiteResult("fusion_properties", True, "invariance, Lipschitz bound, tie-breaks hold")


# protocol -> (response of a sensor to the query x given the uniform u at
# its (sensor, query) address, fusion of the responses) for every protocol;
# a response of None marks a fresh fair guesser outside the ball, and
# scalar_predict adds the guessers as one crowd
_SCALAR_RULES = {
    "cls_abstain": (
        lambda s, x, net, u: protocols.respond_cls_abstain(s, x, net.r_n),
        lambda resp, net, default: protocols.fuse_cls_abstain(resp, default),
    ),
    "cls_noabstain": (
        lambda s, x, net, u: protocols.respond_cls_noabstain(s, x, net.r_n)
        if net.fixed_coins is not None or protocols.in_ball(s.datum.x, x, net.r_n)
        else None,
        lambda resp, net, default: protocols.fuse_cls_noabstain(resp),
    ),
    "reg_abstain": (
        lambda s, x, net, u: protocols.respond_reg_abstain(s, x, net.r_n, net.c_n, u),
        lambda resp, net, default: protocols.fuse_reg_abstain(resp, net.c_n),
    ),
    "reg_noabstain": (
        lambda s, x, net, u: protocols.respond_reg_noabstain(s, x, net.r_n, net.c_n, u)
        if protocols.in_ball(s.datum.x, x, net.r_n) else None,
        lambda resp, net, default: protocols.fuse_reg_noabstain_scaledmean(resp, net.c_n),
    ),
    "specialists": (
        lambda s, x, net, u: protocols.respond_specialist(s, x, net.r_n),
        lambda resp, net, default: protocols.fuse_specialist(resp, default),
    ),
}


def scalar_predict(net, queries, coin_seed, default_label=0) -> np.ndarray:
    """Reference path: one scalar respond call per sensor per query, then
    the scalar fusion rule. The m fresh guessers of a query q vote as one
    crowd: k of them vote 1, where k is the first index at which the exact
    Binomial(m, 1/2) CDF reaches the uniform at the address (n, q)."""
    respond, fuse = _SCALAR_RULES[net.protocol]
    coins = CoinSource(coin_seed)
    out = []
    for q, x in enumerate(queries):
        responses = [
            respond(net.sensor(i), x, net, coins.uniform(i, q)) for i in range(net.n)
        ]
        if m := responses.count(None):
            cdf = np.cumsum(oracle.exact_vote_distribution(np.full(m, 0.5)).pmf)
            u = max(coins.uniform(net.n, q), np.finfo(float).tiny)
            k = min(int(np.searchsorted(cdf, u)), m)
            responses = [r for r in responses if r is not None]
            responses += [Response.VOTE1] * k + [Response.VOTE0] * (m - k)
        out.append(fuse(responses, net, default_label))
    return np.asarray(out, dtype=float)


def _suite_batch_engine() -> SuiteResult:
    """``predict_batch`` must match ``scalar_predict`` bit for bit for every
    protocol, scenario and coin mode, on small random networks with and
    without tied coordinates and points on ball boundaries; the guesser
    crowd must draw the exact Binomial(m, 1/2) quantile, and a two-arm
    regression call must give each arm's one-arm result."""
    u = np.random.default_rng(37).random(500)
    for m in range(41):  # the first k whose exact CDF reaches u
        cdf = np.cumsum(oracle.exact_vote_distribution(np.full(m, 0.5)).pmf)
        if not np.array_equal(predict.binom.ppf(u, m), np.searchsorted(cdf, u)):
            return SuiteResult("batch_engine", False, f"guesser quantile off at m = {m}")
    rng = np.random.default_rng(31)
    checked = 0
    for protocol, sid, mode, ties in itertools.product(
        PROTOCOLS, SCENARIO_IDS, COIN_MODES, (False, True)
    ):
        scenario = make_scenario(sid)
        try:
            check_compatible(protocol, scenario)
        except ValueError:
            continue
        schedule = Schedule(float(rng.uniform(0.05, 0.8)), 0.2, 1.0, 0.1)
        n = int(rng.integers(1, 40))
        seed, coin_seed = (int(v) for v in rng.integers(2**32, size=2))
        net = train_network(protocol, scenario, n, schedule, seed, coin_mode=mode)
        queries, _ = scenario.sample(rng, 8)
        if ties:  # sensors and queries on one 0.1 grid: shared coordinates, and
            # decimal 3-4-5 offsets put points on the sphere of radius 0.5
            centers = None if net.centers is None else np.round(net.centers, 1)
            net = replace(net, xs=np.round(net.xs, 1), centers=centers, r_n=0.5)
            queries = np.round(queries, 1)
        case = f"{protocol} on {sid}, {mode}, n={n}"
        default_label = int(rng.integers(2))
        batch = predict.predict_batch(net, queries, coin_seed, default_label)
        reference = scalar_predict(net, queries, coin_seed, default_label)
        if not np.array_equal(batch.values, reference):
            return SuiteResult("batch_engine", False, f"{case}: batch differs from scalar")
        if protocol == "reg_abstain":  # both regression rules in one call
            arms = (net, replace(net, protocol="reg_noabstain"))
            for arm, got in zip(arms, predict.predict_batch(arms, queries, coin_seed).arms()):
                alone = predict.predict_batch(arm, queries, coin_seed)
                if not all(map(np.array_equal, (got.values, got.responders),
                               (alone.values, alone.responders))):
                    return SuiteResult("batch_engine", False, f"{case}: two-arm call differs")
        checked += 1
    return SuiteResult("batch_engine", True, f"{checked} random networks agree with the scalar "
                       "rules bit for bit, guesser crowds included")


_SUITES = (
    _suite_theorem1_equivalence,
    _suite_poisson_binomial,
    _suite_fusion_properties,
    _suite_batch_engine,
)


def run_verify_suites() -> list[SuiteResult]:
    return [suite() for suite in _SUITES]
