"""Sensor decision rules, fusion rules, and schedule validation."""

import dataclasses
import math

import numpy as np
import pytest

from onebitsim import protocols as pr
from onebitsim.harness import train_network
from onebitsim.scenarios import Example, make_scenario
from onebitsim.seeding import CoinSource

R = pr.Response


def sensor(x, y, **kw):
    return pr.SensorState(Example(np.atleast_1d(x), y), **kw)


# ---------------------------------------------------------------------------
# schedules


def test_schedule_eval_base_case():
    sched = pr.Schedule(r0=0.5, beta=0.3)
    assert pr.schedule_eval(sched, 1) == (0.5, 1.0)


def test_schedule_eval_power_law():
    sched = pr.Schedule(r0=0.5, beta=0.3)
    r_n, _ = pr.schedule_eval(sched, 10**5)
    assert r_n == pytest.approx(0.5 * 10**-1.5, rel=1e-12)
    assert r_n == pytest.approx(0.015811388300841896, rel=1e-12)


def test_schedule_monotonicity():
    sched = pr.Schedule(r0=1.0, beta=0.25, c0=0.5, gamma=0.2)
    values = [pr.schedule_eval(sched, n) for n in (1, 2, 10, 100, 10**4)]
    rs = [v[0] for v in values]
    cs = [v[1] for v in values]
    assert all(a >= b for a, b in zip(rs, rs[1:]))
    assert all(a <= b for a, b in zip(cs, cs[1:]))
    assert all(r > 0 and c > 0 for r, c in values)


def test_schedule_validation_errors():
    with pytest.raises(ValueError):
        pr.Schedule(r0=0.0, beta=0.3)
    with pytest.raises(ValueError):
        pr.Schedule(r0=0.5, beta=-0.1)
    with pytest.raises(ValueError):
        pr.Schedule(r0=0.5, beta=0.3, gamma=-1.0)
    with pytest.raises(ValueError):
        pr.schedule_eval(pr.Schedule(0.5, 0.3), 0)


VALIDATE_CASES = [
    ("cls_abstain", 0.3, 0.0, 1, pr.SATISFIES),
    ("cls_abstain", 0.3, 0.0, 3, pr.SATISFIES),     # beta*d = 0.9 < 1
    ("cls_abstain", 0.5, 0.0, 2, pr.VIOLATES),      # beta*d = 1
    ("cls_abstain", 0.0, 0.0, 1, pr.VIOLATES),      # radius never shrinks
    ("specialists", 0.2, 0.0, 2, pr.SATISFIES),
    ("specialists", 0.6, 0.0, 2, pr.VIOLATES),
    ("cls_noabstain", 0.3, 0.0, 1, pr.SATISFIES),
    ("cls_noabstain", 0.75, 0.0, 1, pr.VIOLATES),   # beta*d >= 1/2
    ("cls_noabstain", 0.3, 0.0, 2, pr.VIOLATES),
    ("reg_abstain", 0.3, 0.1, 1, pr.SATISFIES),     # 2g + bd = 0.5 < 1
    ("reg_abstain", 0.3, 0.4, 1, pr.VIOLATES),      # 2g + bd = 1.1
    ("reg_abstain", 0.3, 0.0, 1, pr.VIOLATES),      # amplitude never grows
    ("reg_noabstain", 0.3, 0.0, 1, pr.ALWAYS_INCONSISTENT),
]


# each id keeps the name its case has always had: a fifth column, the
# deleted constant amplitude, once stood before d and read None in all of them
@pytest.mark.parametrize(
    "protocol,beta,gamma,d,status", VALIDATE_CASES,
    ids=["{}-{}-{}-None-{}-{}".format(*case) for case in VALIDATE_CASES],
)
def test_validate_schedule(protocol, beta, gamma, d, status):
    sched = pr.Schedule(r0=0.5, beta=beta, c0=1.0, gamma=gamma)
    verdict = pr.validate_schedule(sched, protocol, d)
    assert verdict.status == status
    if status != pr.SATISFIES:
        assert verdict.reason


def test_violation_reason_names_the_rate():
    verdict = pr.validate_schedule(pr.Schedule(0.5, 0.75), "cls_noabstain", 1)
    assert "1/2" in verdict.reason


# ---------------------------------------------------------------------------
# classification with abstention


def test_respond_cls_abstain_closed_ball_boundary():
    assert pr.respond_cls_abstain(sensor(0.6, 1), [0.5], 0.1) is R.VOTE1
    assert pr.respond_cls_abstain(sensor(0.6, 1), [0.5], 0.05) is R.ABSTAIN


def test_respond_cls_abstain_euclidean_345():
    s = sensor([0.0, 0.0], 0)
    assert pr.respond_cls_abstain(s, [0.3, 0.4], 0.5) is R.VOTE0


def test_respond_requires_training():
    bare = pr.SensorState(datum=None)
    with pytest.raises(ValueError, match="training datum"):
        pr.respond_cls_abstain(bare, [0.0], 1.0)


def test_fuse_cls_abstain_examples():
    assert pr.fuse_cls_abstain([R.VOTE1, R.VOTE0, R.ABSTAIN]) == 1  # tie -> 1
    assert pr.fuse_cls_abstain([R.VOTE0, R.VOTE0, R.VOTE1]) == 0
    assert pr.fuse_cls_abstain([R.ABSTAIN, R.ABSTAIN]) == 0


# ---------------------------------------------------------------------------
# classification without abstention


def test_respond_cls_noabstain_branches():
    s = sensor(0.5, 1, fixed_coin=0)
    assert pr.respond_cls_noabstain(s, [0.5], 0.1) is R.VOTE1
    # out of the ball the fixed coin replays identically on every query
    for query in ([2.0], [3.0], [-1.0]):
        assert pr.respond_cls_noabstain(s, query, 0.1) is R.VOTE0


def test_respond_cls_noabstain_needs_coin():
    with pytest.raises(ValueError, match="fixed coin"):
        pr.respond_cls_noabstain(sensor(0.5, 1), [2.0], 0.1)


def test_out_of_ball_guesses_are_fair():
    # 1e5 sensors with coins from the addressable stream: 3 sigma ~ 0.0047
    cs = CoinSource(77)
    coins = cs.uniform_array(np.arange(10**5), np.zeros(10**5, dtype=np.int64))
    votes = []
    for i in range(10**5):
        s = sensor(5.0, 1, fixed_coin=int(coins[i] < 0.5))
        votes.append(pr.respond_cls_noabstain(s, [0.0], 0.1).vote)
    assert abs(np.mean(votes) - 0.5) <= 0.005


def test_fuse_cls_noabstain_strict_majority():
    assert pr.fuse_cls_noabstain([R.VOTE1, R.VOTE0]) == 0  # tie -> 0
    assert pr.fuse_cls_noabstain([R.VOTE1, R.VOTE1, R.VOTE0]) == 1
    assert pr.fuse_cls_noabstain([R.VOTE0, R.VOTE0]) == 0


def test_fuse_cls_noabstain_rejects_abstention():
    with pytest.raises(pr.ProtocolViolationError):
        pr.fuse_cls_noabstain([R.VOTE1, R.ABSTAIN])


# ---------------------------------------------------------------------------
# regression with abstention


def test_respond_reg_abstain_extreme_biases():
    rng = np.random.default_rng(0)
    c_n = 2.0
    top = sensor(0.5, c_n)
    bottom = sensor(0.5, -c_n)
    for _ in range(200):
        coin = rng.random()
        assert pr.respond_reg_abstain(top, [0.5], 0.1, c_n, coin) is R.VOTE1
        assert pr.respond_reg_abstain(bottom, [0.5], 0.1, c_n, coin) is R.VOTE0


def test_respond_reg_abstain_zero_label_is_fair():
    rng = np.random.default_rng(1)
    s = sensor(0.5, 0.0)
    coins = rng.random(10**5)
    votes = [
        pr.respond_reg_abstain(s, [0.5], 0.1, 2.0, c).vote for c in coins
    ]
    assert abs(np.mean(votes) - 0.5) <= 0.005


def test_respond_reg_abstain_censors_large_labels():
    # |y| > c_n falls back to a fair coin rather than a clipped bias
    s = sensor(0.5, 7.0)
    assert pr.respond_reg_abstain(s, [0.5], 0.1, 2.0, 0.49) is R.VOTE1
    assert pr.respond_reg_abstain(s, [0.5], 0.1, 2.0, 0.51) is R.VOTE0


def test_respond_reg_abstain_out_of_ball_and_errors():
    s = sensor(0.5, 1.0)
    assert pr.respond_reg_abstain(s, [0.9], 0.1, 2.0, 0.5) is R.ABSTAIN
    with pytest.raises(ValueError, match="c_n"):
        pr.respond_reg_abstain(s, [0.5], 0.1, 0.0, 0.5)


def test_fuse_reg_abstain_values():
    assert pr.fuse_reg_abstain([R.VOTE1] * 4, 4.0) == pytest.approx(4.0)
    assert pr.fuse_reg_abstain([R.VOTE1, R.VOTE0], 4.0) == pytest.approx(0.0)
    assert pr.fuse_reg_abstain([R.VOTE1, R.VOTE1, R.VOTE0], 2.0) == pytest.approx(2 / 3)
    assert pr.fuse_reg_abstain([R.ABSTAIN], 2.0) == 0.0


# ---------------------------------------------------------------------------
# regression without abstention


def test_clip_ball_family():
    # the vote flips where the coin reaches the bias: a fair guess out of
    # the ball, y / 2c + 1/2 inside it, clipped to [0, 1]
    for x_i, y, bias in [
        (0.9, 1.0, 0.5),     # out of ball: guess
        (0.55, 1.0, 0.75),
        (0.55, 5.0, 1.0),    # clipped high
        (0.55, -5.0, 0.0),   # clipped low
    ]:
        s = sensor(x_i, y)
        for coin in (0.0, np.nextafter(bias, 0.0), bias, 0.999):
            expected = R.VOTE1 if coin < bias else R.VOTE0
            assert pr.respond_reg_noabstain(s, [0.5], 0.1, 2.0, coin) is expected
    # the family's fusion is Lipschitz with constant 2c: one flipped vote
    # of n moves the output by 2c / n
    votes = [R.VOTE1, R.VOTE0, R.VOTE0, R.VOTE1, R.VOTE0]
    flipped = [R.VOTE1] + votes[1:3] + [R.VOTE1, R.VOTE1]
    shift = pr.fuse_reg_noabstain_scaledmean(flipped, 2.0) - pr.fuse_reg_noabstain_scaledmean(votes, 2.0)
    assert shift == pytest.approx(4.0 / len(votes))


def test_respond_reg_noabstain_branches():
    # a label at the clip edge votes 1 for every coin; a sensor whose
    # label sits at -c votes 0 for every coin
    hot = sensor(0.5, 2.0)
    cold = sensor(0.5, -2.0)
    for coin in (0.0, 0.5, 0.999):
        assert pr.respond_reg_noabstain(hot, [0.5], 0.1, 2.0, coin) is R.VOTE1
        assert pr.respond_reg_noabstain(cold, [0.5], 0.1, 2.0, coin) is R.VOTE0
    with pytest.raises(ValueError, match="positive"):
        pr.respond_reg_noabstain(sensor(0.5, 0.0), [0.5], 0.1, 0.0, 0.5)


def test_fuse_scaled_mean_values():
    assert pr.fuse_reg_noabstain_scaledmean([R.VOTE1] * 6, 1.0) == pytest.approx(1.0)
    half = [R.VOTE1, R.VOTE0, R.VOTE1, R.VOTE0]
    assert pr.fuse_reg_noabstain_scaledmean(half, 1.0) == pytest.approx(0.0)
    with pytest.raises(pr.ProtocolViolationError):
        pr.fuse_reg_noabstain_scaledmean([R.ABSTAIN], 1.0)


def test_scaled_mean_lipschitz_in_average_hamming():
    rng = np.random.default_rng(3)
    c = 1.7
    for _ in range(500):
        n = int(rng.integers(1, 200))
        b1 = rng.integers(0, 2, size=n)
        b2 = rng.integers(0, 2, size=n)
        f1 = pr.fuse_reg_noabstain_scaledmean(
            [R.VOTE1 if b else R.VOTE0 for b in b1], c
        )
        f2 = pr.fuse_reg_noabstain_scaledmean(
            [R.VOTE1 if b else R.VOTE0 for b in b2], c
        )
        assert abs(f1 - f2) <= 2 * c * np.sum(b1 != b2) / n + 1e-12


# ---------------------------------------------------------------------------
# specialists


def test_respond_specialist_uses_own_region():
    s = pr.SensorState(
        Example([0.58], 1), region_center=np.array([0.5]), fixed_coin=None
    )
    assert pr.respond_specialist(s, [0.55], 0.1) is R.VOTE1
    assert pr.respond_specialist(s, [0.7], 0.1) is R.ABSTAIN
    # membership is tested against the region center, not the datum
    assert pr.respond_specialist(s, [0.41], 0.1) is R.VOTE1


def test_untrainable_specialist_abstains():
    s = pr.SensorState(datum=None, region_center=np.array([0.5]))
    for x in ([0.5], [0.0], [0.99]):
        assert pr.respond_specialist(s, x, 0.1) is R.ABSTAIN
    with pytest.raises(ValueError, match="region"):
        pr.respond_specialist(pr.SensorState(Example([0.5], 1)), [0.5], 0.1)


def test_fuse_specialist():
    assert pr.fuse_specialist([R.VOTE1, R.VOTE0]) == 1
    assert pr.fuse_specialist([R.VOTE0, R.VOTE0, R.VOTE1]) == 0
    assert pr.fuse_specialist([]) == 0


def test_specialist_fusion_is_the_abstention_rule():
    assert pr.fuse_specialist is pr.fuse_cls_abstain


def test_draw_specialist_centers():
    scenario = make_scenario("cityscape_2d")
    net = train_network("specialists", scenario, 500, pr.Schedule(0.5, 0.2), seed=4)
    assert net.centers.shape == (500, 2)
    assert np.all((net.centers >= 0) & (net.centers <= 1))
    # each coordinate's mean over 1e5 centers: 3 sigma = 3/(sqrt(12)*sqrt(1e5))
    big = train_network("specialists", scenario, 10**5, pr.Schedule(0.5, 0.2), seed=5)
    assert np.all(np.abs(big.centers.mean(axis=0) - 0.5) <= 0.003)


# ---------------------------------------------------------------------------
# cross-cutting properties


def _random_responses(rng, with_abstain=True, size=None):
    symbols = [R.VOTE0, R.VOTE1] + ([R.ABSTAIN] if with_abstain else [])
    k = int(rng.integers(0, 24)) if size is None else size
    return [symbols[i] for i in rng.integers(0, len(symbols), size=k)]


def test_fusion_permutation_invariance():
    rng = np.random.default_rng(5)
    for _ in range(500):
        resp = _random_responses(rng)
        perm = list(resp)
        rng.shuffle(perm)
        assert pr.fuse_cls_abstain(resp) == pr.fuse_cls_abstain(perm)
        assert pr.fuse_specialist(resp) == pr.fuse_specialist(perm)
        assert pr.fuse_reg_abstain(resp, 1.3) == pr.fuse_reg_abstain(perm, 1.3)
        votes = [r for r in resp if r.is_vote]
        vperm = list(votes)
        rng.shuffle(vperm)
        assert pr.fuse_cls_noabstain(votes) == pr.fuse_cls_noabstain(vperm)
        assert pr.fuse_reg_noabstain_scaledmean(
            votes, 2.0
        ) == pr.fuse_reg_noabstain_scaledmean(vperm, 2.0)


def test_adding_a_positive_vote_never_decreases_output():
    rng = np.random.default_rng(6)
    for _ in range(400):
        resp = _random_responses(rng)
        votes = [r for r in resp if r.is_vote]
        assert pr.fuse_cls_abstain(resp + [R.VOTE1]) >= pr.fuse_cls_abstain(resp)
        assert pr.fuse_specialist(resp + [R.VOTE1]) >= pr.fuse_specialist(resp)
        assert pr.fuse_reg_abstain(resp + [R.VOTE1], 2.0) >= pr.fuse_reg_abstain(resp, 2.0)
        assert pr.fuse_cls_noabstain(votes + [R.VOTE1]) >= pr.fuse_cls_noabstain(votes)
        assert pr.fuse_reg_noabstain_scaledmean(
            votes + [R.VOTE1], 2.0
        ) >= pr.fuse_reg_noabstain_scaledmean(votes, 2.0)


def test_ball_membership_agrees_between_models():
    # one rule tests "datum near query", the other "query near datum":
    # both reduce to the same closed ball
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = int(rng.integers(1, 4))
        x = rng.normal(size=d)
        xi = rng.normal(size=d)
        r = float(rng.uniform(0.1, 2.5))
        s = pr.SensorState(Example(xi, 1.0))
        cls_in = pr.respond_cls_abstain(
            dataclasses.replace(s, datum=Example(xi, 1)), x, r
        ).is_vote
        reg_in = pr.respond_reg_abstain(s, x, r, 5.0, 0.0).is_vote
        assert cls_in == reg_in


def test_response_determinism_per_address():
    cs = CoinSource(11)
    s = sensor(0.5, 0.7)
    a = pr.respond_reg_abstain(s, [0.5], 0.1, 2.0, cs.uniform(3, 9))
    b = pr.respond_reg_abstain(s, [0.5], 0.1, 2.0, cs.uniform(3, 9))
    assert a is b


def test_bit_accounting():
    def bits(protocol):
        return pr.protocol_spec(protocol).bits_per_query

    assert bits("cls_abstain") == pytest.approx(math.log2(3), abs=0)
    assert bits("cls_abstain") == pytest.approx(1.58496, abs=1e-5)
    assert bits("reg_abstain") == pytest.approx(math.log2(3), abs=0)
    assert bits("specialists") == pytest.approx(math.log2(3), abs=0)
    assert bits("cls_noabstain") == 1.0
    assert bits("reg_noabstain") == 1.0
    with pytest.raises(ValueError, match="^protocol: unknown 'smoke_signals'"):
        bits("smoke_signals")
