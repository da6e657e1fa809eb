"""Property test: above one dimension, the ball counts of ``flag_counts``
and of the two label-count engines equal a brute-force ``in_ball`` count
on drawn inputs, including coordinates and radii where rounding decides."""

import numpy as np
import pytest

from onebitsim import predict as pd
from onebitsim.protocols import NetworkState
from onebitsim.scenarios import in_ball

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# on a failure, hypothesis's pytest plugin imports libcst to print a patch,
# and libcst's import warns through mypy_extensions; as an error, that
# warning would abort the whole session instead of reporting the failure
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

# grid steps: subnormal, decimal (tied sums of squares round either way)
# and 1e149 (coordinates up to +-1.2e150, whose squared differences, up to
# about 6e300, still fit)
_STEPS = [7 * 5e-324, 0.1, 1e149]
# r*r is 0, underflows to 0, or overflows to inf; or the radius is a
# multiple of the grid step, so points fall on the sphere
_FIXED_RADII = [0.0, 1e-300, 1e200]


@st.composite
def _inputs(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(0, 40))
    t = draw(st.integers(0, 12))
    step = draw(st.sampled_from(_STEPS))
    cells = st.integers(-12, 12)

    def grid(rows):
        return np.array(draw(st.lists(cells, min_size=rows * d, max_size=rows * d)),
                        dtype=float).reshape(rows, d) * step

    points, queries = grid(n), grid(t)
    radius = draw(st.sampled_from(_FIXED_RADII) | st.integers(1, 9).map(lambda k: k * step))
    flags = np.array(draw(st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n)),
                     dtype=np.int64).reshape(2, n)
    block = draw(st.sampled_from([1 << 15, 3]))
    return points, queries, radius, flags, block


def _brute(points, queries, radius):
    """The (queries, points) in-ball matrix, from ``in_ball`` itself."""
    return in_ball(points[None, :, :], queries[:, None, :], radius)


_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@_SETTINGS
@given(_inputs())
def test_flag_counts_equal_brute_force_in_ball_counts(case):
    points, queries, radius, flags, block = case
    inside = _brute(points, queries, radius)
    old, pd._CANDIDATE_BLOCK = pd._CANDIDATE_BLOCK, block  # no fixture runs per example
    try:
        counts, sums = pd.flag_counts(points, radius, queries, list(flags))
    finally:
        pd._CANDIDATE_BLOCK = old
    np.testing.assert_array_equal(counts, inside.sum(axis=1))
    for flag, got in zip(flags, sums, strict=True):
        np.testing.assert_array_equal(got, (inside & (flag != 0)).sum(axis=1))


@_SETTINGS
@given(_inputs())
def test_label_count_engines_equal_brute_force_majorities(case):
    points, queries, radius, flags, _ = case
    labels = flags[0]
    shared = dict(r_n=radius, c_n=1.0, xs=points, ys=labels)
    networks = [
        NetworkState(protocol="cls_abstain", **shared),
        NetworkState(protocol="specialists", centers=points, **shared),
    ]
    # specialists train as a whole: every point counts at a positive radius,
    # none at a radius that is not positive
    for network, counted in zip(networks, (True, radius > 0)):
        inside = _brute(points, queries, radius) & counted
        m, votes = inside.sum(axis=1), (inside & (labels != 0)).sum(axis=1)
        batch = pd.predict_batch(network, queries, coin_seed=1, default_label=1)
        np.testing.assert_array_equal(batch.responders, m)
        np.testing.assert_array_equal(batch.values, np.where(m > 0, 2 * votes >= m, 1))
