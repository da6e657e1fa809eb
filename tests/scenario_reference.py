"""Numerical references for the scenario catalog's ground truth.

The library states each scenario's Bayes risk in closed form and draws a
sensor's datum given its ball with the unit-box scenarios' direct
sampler. The tests check both against the independent routes here:
adaptive quadrature of E[f(X)], and rejection from the joint law. This
module holds no tests itself; its name keeps pytest from collecting it.
"""

import math

import numpy as np
from scipy import integrate

from onebitsim import scenarios as sc


def integrate_mean(scenario, f, tol):
    """E[f(X)] by adaptive quadrature to absolute tolerance ``tol``."""
    if isinstance(scenario, sc.GaussianPairScenario):
        # Integrands of interest depend on x only through its projection on
        # the class axis; integrate along that line against the pushforward,
        # a mixture of two 1-d Gaussians.
        m, s = float(np.linalg.norm(scenario.mu)), scenario.sigma
        axis = scenario.mu / m

        def g(t):
            density = 0.5 * (
                np.exp(-0.5 * ((t - m) / s) ** 2) + np.exp(-0.5 * ((t + m) / s) ** 2)
            ) / (s * math.sqrt(2 * math.pi))
            return f(t * axis) * density

        lo, err_lo = integrate.quad(g, -np.inf, 0.0, epsabs=tol / 4, limit=300)
        hi, err_hi = integrate.quad(g, 0.0, np.inf, epsabs=tol / 4, limit=300)
        val, err = lo + hi, err_lo + err_hi
    elif scenario.dimension == 1:  # the unit box
        val, err = integrate.quad(
            lambda x: f(np.array([x])), 0.0, 1.0, epsabs=tol / 2, limit=300
        )
    else:
        val, err = integrate.dblquad(
            lambda y, x: f(np.array([x, y])), 0.0, 1.0, 0.0, 1.0, epsabs=tol / 2
        )
    assert err <= tol, f"quadrature reached absolute error {err:.3e}, requested {tol:.3e}"
    return val


def numerical_bayes_risk(scenario, tol=1e-6):
    """Optimal risk by quadrature: E[min(eta, 1-eta)] or E[Var(Y|X)]."""
    if scenario.task == "classification":
        eta = lambda x: sc.regression_function(scenario, x)
        f = lambda x: min(eta(x), 1 - eta(x))
    else:
        f = lambda x: float(scenario.noise_variance(x[None, :])[0])
    return integrate_mean(scenario, f, tol)


def numerical_classifier_risk(scenario, tol=1e-5):
    """Zero-one risk of the bayes_classifier code path, by quadrature."""

    def f(x):
        e = sc.regression_function(scenario, x)
        return 1.0 - e if sc.bayes_classifier(scenario, x) == 1 else e

    return integrate_mean(scenario, f, tol)


def rejection_conditional_batch(scenario, centers, radius, rng, max_rejects=10_000):
    """``sample_conditional_batch`` by generic rejection: each round redraws
    the still-pending rows from the joint law, and a row still pending after
    ``max_rejects`` draws is untrainable.

    Returns (xs, ys, untrainable_mask); untrainable rows hold NaN.
    """
    n, d = centers.shape
    xs = np.full((n, d), np.nan)
    pending = np.arange(n)
    for _ in range(max_rejects):
        prop, _ = scenario.sample(rng, pending.size)
        ok = sc.in_ball(prop, centers[pending], radius)
        xs[pending[ok]] = prop[ok]
        pending = pending[~ok]
        if not pending.size:
            break
    untrainable = np.zeros(n, dtype=bool)
    untrainable[pending] = True
    ys = np.full(n, np.nan)
    trained = ~untrainable
    if trained.any():
        ys[trained] = scenario.sample_y_given_x(xs[trained], rng)
    return xs, ys, untrainable
