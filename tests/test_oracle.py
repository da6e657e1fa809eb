"""Centralized reference rules and the exact vote-count law."""

import itertools
import math

import numpy as np
import pytest

from onebitsim import oracle as oc
from onebitsim import protocols as pr
from onebitsim.harness import NetworkState, train_network
from onebitsim.predict import predict_batch
from onebitsim.scenarios import Example, make_scenario


def test_naive_kernel_classify_basic():
    assert oc.naive_kernel_classify([Example([0.5], 1)], [0.5], 0.1) == 1
    assert oc.naive_kernel_classify([Example([0.9], 1)], [0.1], 0.1) == 0
    train = [Example([0.5], 1), Example([0.52], 0)]
    assert oc.naive_kernel_classify(train, [0.5], 0.1) == 1  # tie -> 1


def test_distributed_equals_naive_kernel_on_random_configs():
    rng = np.random.default_rng(12)
    for _ in range(150):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 120))
        r = float(rng.uniform(0.01, 0.9))
        train = [
            Example(rng.uniform(-1, 1, size=d), int(rng.integers(0, 2)))
            for _ in range(n)
        ]
        sensors = [pr.SensorState(ex) for ex in train]
        for x in rng.uniform(-1, 1, size=(3, d)):
            responses = [pr.respond_cls_abstain(s, x, r) for s in sensors]
            assert pr.fuse_cls_abstain(responses) == oc.naive_kernel_classify(
                train, x, r
            )


def test_vote_distribution_two_fair_coins():
    dist = oc.exact_vote_distribution([0.5, 0.5])
    np.testing.assert_allclose(dist.pmf, [0.25, 0.5, 0.25], atol=0)


def test_vote_distribution_deterministic_sensors():
    dist = oc.exact_vote_distribution([1.0, 0.0])
    np.testing.assert_allclose(dist.pmf, [0.0, 1.0, 0.0], atol=0)


@pytest.mark.parametrize("n", range(1, 13))
def test_vote_distribution_matches_enumeration(n):
    rng = np.random.default_rng(100 + n)
    p = rng.random(n)
    pmf = oc.exact_vote_distribution(p).pmf
    brute = np.zeros(n + 1)
    for bits in itertools.product((0, 1), repeat=n):
        brute[sum(bits)] += math.prod(
            p[i] if b else 1 - p[i] for i, b in enumerate(bits)
        )
    assert np.max(np.abs(pmf - brute)) <= 1e-12


def test_vote_distribution_normalization_at_scale():
    rng = np.random.default_rng(13)
    dist = oc.exact_vote_distribution(rng.random(10**4))
    assert len(dist.pmf) == 10**4 + 1
    assert np.all(dist.pmf >= 0)
    assert abs(math.fsum(dist.pmf.tolist()) - 1.0) <= 1e-12


def test_vote_distribution_validation():
    with pytest.raises(ValueError, match="lie in"):
        oc.exact_vote_distribution([0.5, 1.2])
    with pytest.raises(ValueError, match="sums to"):
        oc.VoteDistribution(pmf=np.array([0.5, 0.4]), n=1)
    with pytest.raises(ValueError, match="nonnegative"):
        oc.VoteDistribution(pmf=np.array([1.1, -0.1]), n=1)
    with pytest.raises(ValueError, match=r"^pmf must have length n\+1"):
        oc.VoteDistribution(pmf=np.array([1.0]), n=1)
    with pytest.raises(ValueError, match="^p must be a 1-d sequence"):
        oc.exact_vote_distribution([[0.5, 0.5]])


def test_vote_distribution_rejects_nan():
    # each check is written so that NaN fails it, not passes it
    for p in ([float("nan")], [0.5, float("nan")]):
        with pytest.raises(ValueError, match="lie in"):
            oc.exact_vote_distribution(p)
    for pmf in ([np.nan, 1.0], [np.nan, np.nan]):
        with pytest.raises(ValueError, match="nonnegative"):
            oc.VoteDistribution(pmf=np.array(pmf), n=1)


def _manual_network(protocol, xs, ys, r_n, c_n=1.0, fixed_coins=None):
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    return NetworkState(
        protocol=protocol,
        r_n=r_n,
        c_n=c_n,
        xs=xs,
        ys=np.asarray(ys, dtype=float),
        fixed_coins=fixed_coins,
    )


def test_exact_error_unanimous_correct_network():
    # eta = 1 everywhere, every sensor informative and voting 1: no error
    scen = make_scenario("checkerboard_2d", p_on=1.0, p_off=1.0)
    net = _manual_network("cls_noabstain", np.full((9, 2), 0.5), np.ones(9), r_n=5.0)
    assert oc.exact_conditional_error_at_x(net, scen, [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)


def test_exact_error_all_guessing_at_coin_flip_posterior():
    scen = make_scenario("gauss_mix_1d")
    net = _manual_network("cls_noabstain", np.full(10, 50.0), np.ones(10), r_n=0.1)
    # eta(0) = 1/2 and every sensor guesses: error is exactly 1/2
    assert oc.exact_conditional_error_at_x(net, scen, [0.0]) == pytest.approx(0.5, abs=1e-12)


def test_exact_error_unsupported_protocols():
    scen = make_scenario("gauss_mix_1d")
    net = _manual_network("cls_abstain", [0.0], [1.0], r_n=0.1)
    with pytest.raises(ValueError, match="not defined"):
        oc.exact_conditional_error_at_x(net, scen, [0.0])
    fixed = _manual_network("cls_noabstain", [0.0], [1.0], r_n=0.1, fixed_coins=np.array([1]))
    with pytest.raises(ValueError, match="per_query"):
        oc.exact_conditional_error_at_x(fixed, scen, [0.0])


def test_exact_error_matches_direct_formula_small_network():
    # independent route: enumerate all coin outcomes by hand at n = 3
    scen = make_scenario("gauss_mix_1d")
    xs = np.array([0.95, 1.05, 40.0])
    ys = np.array([1.0, 0.0, 1.0])
    net = _manual_network("cls_noabstain", xs, ys, r_n=0.2)
    x = np.array([1.0])
    eta = float(scen.eta(x[None, :])[0])
    # sensors 0,1 informative (votes 1 and 0), sensor 2 guesses fairly:
    # majority (> 3/2 votes) happens iff the guess lands 1 -> prob 1/2
    expected = 0.5 * (1 - eta) + 0.5 * eta
    assert oc.exact_conditional_error_at_x(net, scen, x) == pytest.approx(expected, abs=1e-12)


def test_exact_error_cls_monte_carlo_cross_check():
    rng = np.random.default_rng(14)
    scen = make_scenario("gauss_mix_1d")
    xs = rng.normal(size=12)
    ys = (rng.random(12) < scen.eta(xs[:, None])).astype(float)
    net = _manual_network("cls_noabstain", xs, ys, r_n=0.4)
    x = np.array([0.6])
    exact = oc.exact_conditional_error_at_x(net, scen, x)
    inside = np.abs(xs - x[0]) <= 0.4
    p = np.where(inside, ys, 0.5)
    eta = float(scen.eta(x[None, :])[0])
    rounds = 200_000
    votes = rng.random((rounds, 12)) < p
    majority = 2 * votes.sum(axis=1) > 12
    mc = np.mean(np.where(majority, 1 - eta, eta))
    assert abs(exact - mc) <= 0.005


def test_exact_error_reg_abstain_monte_carlo_cross_check():
    rng = np.random.default_rng(15)
    scen = make_scenario("sine_1d", noise=0.1)
    xs = rng.random(10)
    ys = np.sin(2 * np.pi * xs) + 0.1 * rng.standard_normal(10)
    net = _manual_network("reg_abstain", xs, ys, r_n=0.3, c_n=2.0)
    x = np.array([0.4])
    exact = oc.exact_conditional_error_at_x(net, scen, x)
    inside = np.abs(xs - x[0]) <= 0.3
    biases = np.where(np.abs(ys[inside]) <= 2.0, ys[inside] / 4.0 + 0.5, 0.5)
    m = int(inside.sum())
    rounds = 300_000
    v = (rng.random((rounds, m)) < biases).sum(axis=1)
    estimates = 2 * 2.0 * (v / m - 0.5)
    y_draws = np.sin(2 * np.pi * x[0]) + 0.1 * rng.standard_normal(rounds)
    mc = np.mean((estimates - y_draws) ** 2)
    assert abs(exact - mc) <= 0.01


def test_exact_error_reg_noabstain_empty_network_returns_prior_mse():
    # no sensor votes, so the engine's estimate is 0
    scen = make_scenario("sine_1d", noise=0.1)
    net = train_network("reg_noabstain", scen, 0, pr.Schedule(0.5, 0.3), seed=1)
    x = np.array([0.25])
    assert predict_batch(net, x[None, :]).values.tolist() == [0.0]
    m2 = float(scen.eta(x[None, :])[0] ** 2 + scen.noise_variance(x[None, :])[0])
    assert oc.exact_conditional_error_at_x(net, scen, x) == pytest.approx(m2)


def test_exact_error_reg_abstain_all_abstain_returns_prior_mse():
    scen = make_scenario("sine_1d", noise=0.1)
    net = _manual_network("reg_abstain", [5.0], [0.3], r_n=0.1, c_n=2.0)
    x = np.array([0.25])
    m2 = float(scen.eta(x[None, :])[0] ** 2 + scen.noise_variance(x[None, :])[0])
    assert oc.exact_conditional_error_at_x(net, scen, x) == pytest.approx(m2)
