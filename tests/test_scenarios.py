"""Scenario catalog: sampling contracts and Bayes ground truth."""

import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import expit, ndtr
from scipy.stats import kstest, ks_2samp, norm

from onebitsim import scenarios as sc

import scenario_reference as ref

ALL_IDS = sc.SCENARIO_IDS
CLS_IDS = [s for s in ALL_IDS if sc.make_scenario(s).task == "classification"]

PHI_MINUS_1 = 0.15865525393145707  # standard normal CDF at -1


def test_catalog_ids():
    assert set(ALL_IDS) == {
        "gauss_mix_1d",
        "gauss_mix_2d",
        "checkerboard_2d",
        "sine_1d",
        "cityscape_2d",
    }
    with pytest.raises(ValueError, match="^scenario_id: unknown 'nope'"):
        sc.make_scenario("nope")
    with pytest.raises(ValueError, match="^wavelength: unknown parameter for sine_1d"):
        sc.make_scenario("sine_1d", wavelength=3)
    with pytest.raises(ValueError, match="^noise: expected a finite number, got nan"):
        sc.make_scenario("sine_1d", noise=float("nan"))


@pytest.mark.parametrize("sid,params", [
    ("gauss_mix_1d", {"mu": 1e75, "sigma": 1e-75}),
    ("gauss_mix_1d", {"mu": -1e75, "sigma": 1e75}),
    ("gauss_mix_2d", {"sigma": 1e-75}),
    ("gauss_mix_2d", {"sigma": 1e75}),
    ("cityscape_2d", {"center": (1e75, -1e75)}),
])
def test_parameters_at_their_float_bounds_raise_no_warning(sid, params):
    # every warning is an error under pytest here, so an overflow or a
    # division by zero at an accepted extreme fails the test
    scen = sc.make_scenario(sid, **params)
    xs, ys = scen.sample(np.random.default_rng(3), 200)
    eta = scen.eta(xs)
    assert np.all(np.isfinite(xs)) and np.all((0 <= eta) & (eta <= 1))
    assert 0 <= scen.bayes_risk() <= 0.5


@pytest.mark.parametrize("sid", ALL_IDS)
def test_sample_example_type_contract(sid):
    scen = sc.make_scenario(sid)
    xs, ys = scen.sample(np.random.default_rng(1), 50)
    assert xs.shape == (50, scen.dimension) and ys.shape == (50,)
    assert np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))
    if scen.task == "classification":
        assert set(np.unique(ys)) <= {0, 1}
    if isinstance(scen, sc.UniformBoxScenario):
        assert np.all(xs >= 0.0) and np.all(xs <= 1.0)


def test_sampling_deterministic_given_seed():
    scen = sc.make_scenario("gauss_mix_2d")
    a = scen.sample(np.random.default_rng(5), 100)
    b = scen.sample(np.random.default_rng(5), 100)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_gauss_mix_prior_law_of_large_numbers():
    # empirical P(Y=1) over 1e6 draws; 3 sigma = 3 * 0.5 / 1000 = 0.0015
    scen = sc.make_scenario("gauss_mix_1d")
    _, ys = scen.sample(np.random.default_rng(2), 10**6)
    assert abs(ys.mean() - 0.5) <= 0.002


def test_regression_function_values():
    sine = sc.make_scenario("sine_1d")
    assert sc.regression_function(sine, 0.25) == pytest.approx(1.0, abs=1e-15)
    gm = sc.make_scenario("gauss_mix_1d")
    assert sc.regression_function(gm, 0.0) == 0.5
    # posterior at x=1 from the two class densities (independent oracle)
    dens1 = norm.pdf(1.0 - 1.0)
    dens0 = norm.pdf(1.0 + 1.0)
    oracle = 0.5 * dens1 / (0.5 * dens1 + 0.5 * dens0)
    assert sc.regression_function(gm, 1.0) == pytest.approx(oracle, abs=1e-12)
    assert sc.regression_function(gm, 1.0) == pytest.approx(0.8807970779778823, abs=1e-12)


def test_bayes_classifier_values_and_tie():
    gm = sc.make_scenario("gauss_mix_1d")
    assert sc.bayes_classifier(gm, 2.0) == 1
    assert sc.bayes_classifier(gm, -2.0) == 0
    # eta(0) = 1/2 exactly: the tie resolves to label 1
    assert sc.bayes_classifier(gm, 0.0) == 1
    with pytest.raises(ValueError, match="not a classification"):
        sc.bayes_classifier(sc.make_scenario("sine_1d"), 0.5)


def test_bayes_risk_values():
    sine = sc.make_scenario("sine_1d", noise=0.1)
    assert sine.bayes_risk() == pytest.approx(0.01, abs=1e-15)
    gm = sc.make_scenario("gauss_mix_1d")
    assert gm.bayes_risk() == pytest.approx(PHI_MINUS_1, abs=1e-12)
    assert gm.bayes_risk() == pytest.approx(float(norm.cdf(-1.0)), abs=1e-15)
    # degenerate: Y identically 1 on every cell
    const = sc.make_scenario("checkerboard_2d", p_on=1.0, p_off=1.0)
    assert const.bayes_risk() == 0.0
    _, ys = const.sample(np.random.default_rng(3), 1000)
    assert np.all(ys == 1)


def test_a_tiny_gaussian_mean_is_still_separated():
    # mu * mu underflows to 0 below about 1e-162; the means differ all the same
    gm = sc.make_scenario("gauss_mix_1d", mu=1e-170)
    assert gm.bayes_risk() == 0.5
    assert sc.GaussianPairScenario("pair", [1e-170, 1e-170], 1.0)._mu_norm > 0


def test_gaussian_eta_is_scipys_expit_to_rounding():
    # eta is expit's own formula, 1 / (1 + exp(-z)), with numpy's exp for
    # libm's: the two differ on about 2 % of arguments, by at most 2 ulp
    # while 1 + exp(-z) < 2^53 and by about 2 eps relative (4 ulp) below,
    # with no overflow warning where exp(-z) is inf
    gm = sc.make_scenario("gauss_mix_1d")  # z = 2x exactly: mu = sigma = 1
    z = np.random.default_rng(4).uniform(-50.0, 50.0, 10**5)
    eta, ref = gm.eta(z[:, None] / 2.0), expit(z)
    assert np.all(np.abs(eta - ref) <= 3 * np.finfo(float).eps * ref)
    ulps = np.abs(eta.view(np.int64) - ref.view(np.int64))
    assert ulps[z > -36.0].max() <= 2
    assert gm.eta(np.zeros((1, 1)))[0] == 0.5
    assert list(gm.eta(np.array([[-1e4], [1e4]]))) == [0.0, 1.0]


def test_gaussian_bayes_risk_is_scipys_ndtr_to_rounding():
    # 0.5 * erfc(a / sqrt 2) is Phi(-a); libm's erfc and scipy's ndtr agree
    # to a few ulp while the risk is at least Phi(-4)
    for mu in np.linspace(0.1, 2.0, 20):
        for sigma in np.linspace(0.5, 2.0, 16):
            risk = sc.make_scenario("gauss_mix_1d", mu=mu, sigma=sigma).bayes_risk()
            assert risk == pytest.approx(ndtr(-mu / sigma), rel=1e-14, abs=0)
    assert sc.make_scenario("gauss_mix_1d").bayes_risk() == ndtr(-1.0) == PHI_MINUS_1


@pytest.mark.parametrize("sid", ALL_IDS)
def test_closed_form_matches_quadrature(sid):
    scen = sc.make_scenario(sid)
    closed = scen.bayes_risk()
    assert abs(closed - ref.numerical_bayes_risk(scen, tol=1e-6)) <= 1e-6


@pytest.mark.parametrize("sid", CLS_IDS)
def test_bayes_classifier_risk_matches_bayes_risk(sid):
    # the integrated risk of the implemented classifier, not of the formula
    scen = sc.make_scenario(sid)
    assert abs(ref.numerical_classifier_risk(scen) - scen.bayes_risk()) <= 1e-5


def test_sine_second_moment_quadrature_cross_check():
    scen = sc.make_scenario("sine_1d", noise=0.1)
    signal, err = quad(lambda x: math.sin(2 * math.pi * x) ** 2, 0.0, 1.0, epsabs=1e-10)
    assert err < 1e-9
    assert scen.second_moment() == pytest.approx(signal + 0.01, abs=1e-9)


# ---------------------------------------------------------------------------
# conditional sampling


def test_conditional_sample_stays_in_region():
    rng = np.random.default_rng(4)
    centers = np.tile([0.5, 0.4], (200, 1))
    scen = sc.make_scenario("checkerboard_2d")
    for sample in (sc.sample_conditional_batch, ref.rejection_conditional_batch):
        xs, ys, untrainable = sample(scen, centers, 0.1, rng)
        assert not untrainable.any()
        assert np.all(sc.in_ball(xs, centers, 0.1))
        assert set(np.unique(ys)) <= {0, 1}


def test_conditional_sample_zero_mass_region():
    rng = np.random.default_rng(5)
    # the direct sampler takes centers in the unit box only; (1.5, 0.5) at
    # r = 0.5 is a ball tangent to the square, whose mass is one point
    scen = sc.make_scenario("cityscape_2d")
    for center, radius in (([1.5, 0.5], 0.5), ([-0.1, 0.5], 0.1), ([np.nan, 0.5], 0.1)):
        centers = np.array([[0.5, 0.5], center])
        with pytest.raises(ValueError, match="^centers: "):
            sc.sample_conditional_batch(scen, centers, radius, rng)
    # the generic rejection reference marks the far ball untrainable
    centers = np.array([[0.5], [5.0]])  # the far ball misses [0, 1]
    rejection = functools.partial(ref.rejection_conditional_batch, max_rejects=1000)
    xs, ys, untrainable = rejection(sc.make_scenario("sine_1d"), centers, 0.1, rng)
    np.testing.assert_array_equal(untrainable, [False, True])
    assert np.isnan(xs[1]).all() and np.isnan(ys[1])
    assert abs(xs[0, 0] - 0.5) <= 0.1


@pytest.mark.parametrize("radius", [0.0, -0.1, -5.0])
def test_a_nonpositive_radius_leaves_every_region_untrainable(radius):
    # centers inside the unit square, on a face and on a corner
    centers = np.array([[0.5, 0.5], [0.0, 0.3], [0.0, 1.0]])
    scen = sc.make_scenario("cityscape_2d")
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    xs = scen.direct_conditional_x(centers, radius, rng)
    assert rng.bit_generator.state == state  # nothing is drawn
    assert xs.shape == centers.shape and np.isnan(xs).all()


@pytest.mark.parametrize("sid", ["checkerboard_2d", "sine_1d"])
def test_conditional_batch_draws_labels_for_every_row_or_none(sid):
    scen = sc.make_scenario(sid)
    centers = np.full((50, scen.dimension), 0.5)
    for radius in (0.0, np.nan):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        _, ys, untrainable = sc.sample_conditional_batch(scen, centers, radius, rng)
        assert rng.bit_generator.state == state  # nothing is drawn
        assert untrainable.all() and ys.dtype == np.float64 and np.isnan(ys).all()
    # at r = 0.1 every row trains; its labels are the ones sample_y_given_x
    # draws for its xs on the generator that sampled them
    rng = np.random.default_rng(9)
    xs, ys, untrainable = sc.sample_conditional_batch(scen, centers, 0.1, rng)
    replay = np.random.default_rng(9)
    xs_again = scen.direct_conditional_x(centers, 0.1, replay)
    np.testing.assert_array_equal(xs, xs_again)
    assert not untrainable.any() and ys.dtype == np.float64
    np.testing.assert_array_equal(ys, scen.sample_y_given_x(xs, replay))


def test_regions_centered_on_faces_and_corners_train_inside_them():
    corners = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    faces = [[0.0, 0.5], [1.0, 0.5], [0.5, 0.0], [0.5, 1.0]]
    centers = np.repeat(np.array(corners + faces), 500, axis=0)
    scen = sc.make_scenario("checkerboard_2d")
    xs = scen.direct_conditional_x(centers, 0.1, np.random.default_rng(2))
    assert np.all(sc.in_ball(xs, centers, 0.1))
    assert np.all((xs >= 0.0) & (xs <= 1.0))


def test_conditional_uniform_is_uniform_on_intersection():
    # X ~ U[0,1] given |x - 0.5| <= 0.1 must be U[0.4, 0.6]
    scen = sc.make_scenario("sine_1d")
    rng = np.random.default_rng(6)
    xs, _, untrainable = sc.sample_conditional_batch(
        scen, np.full((10**5, 1), 0.5), 0.1, rng
    )
    assert not untrainable.any()
    stat = kstest(xs[:, 0], "uniform", args=(0.4, 0.2))
    assert stat.pvalue > 0.01


@pytest.mark.parametrize("sid,center,radius", [
    ("sine_1d", [0.35], 0.12),
    ("checkerboard_2d", [0.5, 0.4], 0.2),
    ("cityscape_2d", [0.9, 0.9], 0.15),  # corner-clipped ball
])
def test_direct_sampler_matches_rejection(sid, center, radius):
    scen = sc.make_scenario(sid)
    rng = np.random.default_rng(7)
    centers = np.tile(np.asarray(center, dtype=float), (10**5, 1))
    direct, _, un_d = sc.sample_conditional_batch(scen, centers, radius, rng)
    rejected, _, un_r = ref.rejection_conditional_batch(scen, centers, radius, rng)
    assert not un_d.any() and not un_r.any()
    for axis in range(scen.dimension):
        assert ks_2samp(direct[:, axis], rejected[:, axis]).pvalue > 0.001
    dist_d = np.linalg.norm(direct - np.asarray(center), axis=1)
    dist_r = np.linalg.norm(rejected - np.asarray(center), axis=1)
    assert ks_2samp(dist_d, dist_r).pvalue > 0.001


def test_conditional_batch_labels_follow_posterior():
    scen = sc.make_scenario("cityscape_2d", flip=0.1)
    rng = np.random.default_rng(8)
    center = np.array([0.5, 0.5])  # deep inside the positive zone
    xs, ys, _ = sc.sample_conditional_batch(scen, np.tile(center, (20_000, 1)), 0.05, rng)
    assert abs(ys.mean() - 0.9) < 0.01


def test_example_validation():
    with pytest.raises(ValueError, match="finite"):
        sc.Example(np.array([np.nan]), 1.0)
    with pytest.raises(ValueError, match="finite"):
        sc.Example(np.array([0.0]), float("inf"))
