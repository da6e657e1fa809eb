"""Batch engines must reproduce the per-sensor protocol semantics."""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom

from onebitsim import predict as pd
from onebitsim import protocols
from onebitsim.harness import train_network
from onebitsim.oracle import exact_conditional_error_at_x
from onebitsim.protocols import Schedule
from onebitsim.scenarios import in_ball, make_scenario
from onebitsim.seeding import CoinSource
from onebitsim.verify import scalar_predict


CASES = [
    ("cls_abstain", "gauss_mix_1d", "per_sensor"),
    ("cls_abstain", "gauss_mix_2d", "per_sensor"),
    ("cls_noabstain", "gauss_mix_1d", "per_sensor"),
    ("cls_noabstain", "gauss_mix_1d", "per_query"),
    ("cls_noabstain", "checkerboard_2d", "per_query"),
    ("reg_abstain", "sine_1d", "per_sensor"),
    ("reg_noabstain", "sine_1d", "per_sensor"),
    ("specialists", "cityscape_2d", "per_sensor"),
]


@pytest.mark.parametrize("protocol,sid,mode", CASES)
def test_batch_matches_sensor_by_sensor(protocol, sid, mode):
    scen = make_scenario(sid)
    net = train_network(
        protocol, scen, 60, Schedule(0.4, 0.2, 1.0, 0.1), seed=5, coin_mode=mode
    )
    # the same network on a 0.1 grid, where sensors share coordinates
    centers = None if net.centers is None else np.round(net.centers, 1)
    tied = dataclasses.replace(net, xs=np.round(net.xs, 1), centers=centers)
    queries, _ = scen.sample(np.random.default_rng(21), 37)
    for network in (net, tied):
        batch = pd.predict_batch(network, queries, coin_seed=123)
        np.testing.assert_array_equal(
            batch.values.astype(float), scalar_predict(network, queries, 123)
        )


# (grid step, radius): a binary grid where 3-4-5 offsets land exactly on
# the sphere, a decimal grid at r = one step, and decimal 3-4-5 offsets
BOUNDARY_GRIDS = [(1 / 16, 5 / 16), (0.1, 0.1), (0.1, 0.5)]


@pytest.mark.parametrize(
    "protocol,sid",
    [
        ("cls_abstain", "gauss_mix_2d"),
        ("specialists", "cityscape_2d"),
        ("cls_noabstain", "gauss_mix_2d"),  # per-sensor (fixed) coins
    ],
)
def test_2d_label_counts_on_boundaries_and_ties(protocol, sid, monkeypatch):
    def no_pairs(*args, **kwargs):
        raise AssertionError("label-count engines must not enumerate pairs")

    monkeypatch.setattr(pd, "_in_ball_votes", no_pairs)
    scen = make_scenario(sid)
    net = train_network(protocol, scen, 70, Schedule(0.4, 0.2, 1.0, 0.1), seed=13)
    rng = np.random.default_rng(17)
    for step, r in BOUNDARY_GRIDS:
        cells = round(1 / step)
        points = rng.integers(0, cells + 1, size=(net.n, 2)) * step
        queries = rng.integers(0, cells + 1, size=(40, 2)) * step
        if step == 1 / 16:  # some sensors lie exactly on a query's sphere
            gap = np.linalg.norm(points[None, :, :] - queries[:, None, :], axis=2)
            assert np.any(gap == r)
        field = "centers" if protocol == "specialists" else "xs"
        network = dataclasses.replace(net, r_n=r, **{field: points})
        networks = [network]
        if protocol == "cls_noabstain":  # and with the guesser crowd, whose
            # size shows every sensor counted on the wrong side of a sphere
            networks.append(dataclasses.replace(network, fixed_coins=None))
        for network in networks:
            batch = pd.predict_batch(network, queries, coin_seed=5)
            np.testing.assert_array_equal(
                batch.values.astype(float), scalar_predict(network, queries, 5)
            )


def _in_ball_counts(points, queries, r, flag=True):
    """In-ball points per query, or those of them whose 0/1 ``flag`` is set."""
    return (in_ball(points[None, :, :], queries[:, None, :], r) & (flag != 0)).sum(axis=1)


def _check_flag_counts(points, queries, r, flags):
    counts, sums = pd.flag_counts(points, r, queries, list(flags))
    np.testing.assert_array_equal(counts, _in_ball_counts(points, queries, r))
    for flag, got in zip(flags, sums, strict=True):
        np.testing.assert_array_equal(got, _in_ball_counts(points, queries, r, flag))


@pytest.mark.parametrize(
    "protocol,sid,mode",
    [
        ("cls_abstain", "gauss_mix_1d", "per_sensor"),
        ("cls_noabstain", "gauss_mix_1d", "per_sensor"),
        ("cls_noabstain", "gauss_mix_1d", "per_query"),
        ("reg_abstain", "sine_1d", "per_sensor"),
        ("reg_noabstain", "sine_1d", "per_sensor"),
    ],
)
def test_1d_balls_on_boundaries_and_ties(protocol, sid, mode):
    # sensors and queries on one 0.1 grid, where q - r and q + r round to
    # either side of the coordinates that in_ball admits; at r = 1e200, r * r
    # is inf and every ball holds every sensor
    scen = make_scenario(sid)
    net = train_network(
        protocol, scen, 70, Schedule(0.4, 0.2, clamp=0.5), seed=13, coin_mode=mode
    )
    rng, flag_rng = np.random.default_rng(19), np.random.default_rng(20)
    for r in (0.1, 0.3, 0.5, 0.7, 1e200):
        points = rng.integers(0, 21, size=(net.n, 1)) * 0.1
        queries = rng.integers(0, 21, size=(40, 1)) * 0.1
        network = dataclasses.replace(net, xs=points, r_n=r)
        flags = flag_rng.integers(0, 2, size=(2, net.n))
        _check_flag_counts(points, queries, r, flags)
        batch = pd.predict_batch(network, queries, coin_seed=5)
        np.testing.assert_array_equal(
            batch.values.astype(float), scalar_predict(network, queries, 5)
        )


# 3-d grids: a binary one where (1, 2, 2) offsets land exactly on the
# sphere, and decimal ones where three squares summed in another order
# round some pairs to the other side of r*r
BOUNDARY_GRIDS_3D = [(1 / 16, 3 / 16), (0.1, 0.3), (0.1, 0.7)]


def test_strip_index_applies_the_in_ball_test():
    # the engines count balls above one dimension with flag_counts' strip
    # index; the bit-for-bit claim holds only while its test is in_ball's,
    # with the squares summed in in_ball's order
    rng, flag_rng = np.random.default_rng(23), np.random.default_rng(24)
    for d, grids in ((2, BOUNDARY_GRIDS), (3, BOUNDARY_GRIDS_3D)):
        for step, r in grids:
            cells = round(1 / step)
            points = rng.integers(0, cells + 1, size=(200, d)) * step
            queries = rng.integers(0, cells + 1, size=(200, d)) * step
            if d == 3 and step == 0.1:
                sq = (points[None, :, :] - queries[:, None, :]) ** 2
                reordered = sq[..., 2] + sq[..., 1] + sq[..., 0] <= r * r
                assert np.any(reordered != in_ball(points[None, :, :], queries[:, None, :], r))
            # the per-flag sums, with all four flag patterns present
            flags = flag_rng.integers(0, 2, size=(2, 200))
            assert np.unique(flags[0] + 2 * flags[1]).size == 4
            _check_flag_counts(points, queries, r, flags)


def _strip_edge_cases(d):
    """(points, queries, radius) cases at the strip index's edges in ``d``
    dimensions: ``r*r`` zero, underflowing and overflowing; no points; no
    queries; every point on one x; coordinates near 1e150; and queries
    outside the data throughout."""
    rng = np.random.default_rng(31 + d)
    points = rng.integers(0, 11, size=(150, d)) * 0.1
    queries = rng.integers(-5, 16, size=(60, d)) * 0.1
    shared = points.copy()
    shared[:, 0] = 0.5
    near = queries.copy()
    near[::3, 0] = 0.5
    cases = [(points, queries, r) for r in (0.0, 1e-300, 1e200, 0.3)]
    cases += [
        (np.empty((0, d)), queries, 0.3),
        (points, np.empty((0, d)), 0.3),
        (shared, near, 0.2),
        (1e150 * (1 + points), 1e150 * (1 + queries), 1e149),
    ]
    return cases


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("block", [1 << 14, 5])
def test_strip_index_counts_exactly_at_its_edges(d, block, monkeypatch):
    # a block of 5 splits runs and queries across slices
    monkeypatch.setattr(pd, "_CANDIDATE_BLOCK", block)
    flag_rng = np.random.default_rng(40 + d)
    for points, queries, r in _strip_edge_cases(d):
        flags = flag_rng.integers(0, 2, size=(2, len(points)))
        _check_flag_counts(points, queries, r, flags)


@pytest.mark.parametrize("sid", ["gauss_mix_1d", "gauss_mix_2d"])
def test_per_query_cls_noabstain_hashes_one_coin_per_query(sid, monkeypatch):
    # the guesser crowd is the only coin: one per query, and no pairs
    def no_pairs(*args, **kwargs):
        raise AssertionError("per-query cls_noabstain must not enumerate pairs")

    hashed = []

    def counted(module, name):
        healthy = getattr(module, name)

        def hashing(*args):
            bits = healthy(*args)
            hashed.append(bits.size)
            return bits
        monkeypatch.setattr(module, name, hashing)

    monkeypatch.setattr(pd, "_in_ball_votes", no_pairs)
    counted(pd, "run_bits")
    counted(CoinSource, "uniform_array")
    scen = make_scenario(sid)
    net = train_network(
        "cls_noabstain", scen, 70, Schedule(0.4, 0.2, 1.0, 0.1), seed=13,
        coin_mode="per_query",
    )
    queries, _ = scen.sample(np.random.default_rng(17), 40)
    batch = pd.predict_batch(net, queries, coin_seed=5)
    assert sum(hashed) == len(queries)
    np.testing.assert_array_equal(
        batch.values.astype(float), scalar_predict(net, queries, 5)
    )


def test_batch_results_independent_of_chunking(monkeypatch):
    cases = []
    for protocol, sid, mode in [
        ("reg_abstain", "sine_1d", "per_sensor"),
        ("reg_noabstain", "sine_1d", "per_sensor"),
        ("cls_noabstain", "gauss_mix_1d", "per_query"),
        ("cls_noabstain", "checkerboard_2d", "per_query"),
    ]:
        scen = make_scenario(sid)
        net = train_network(
            protocol, scen, 200, Schedule(0.4, 0.2, 1.0, 0.1), seed=9, coin_mode=mode
        )
        queries, _ = scen.sample(np.random.default_rng(2), 64)
        cases.append((net, queries, pd.predict_batch(net, queries, coin_seed=7)))
    monkeypatch.setattr(pd, "_PAIR_BLOCK", 17)
    for net, queries, full in cases:
        tiny = pd.predict_batch(net, queries, coin_seed=7)
        np.testing.assert_array_equal(full.values, tiny.values)
        np.testing.assert_array_equal(full.responders, tiny.responders)


# 1-d sensors in runs of 3, 1, 10, 2 and 3 (the last run ends the sorted
# array), and queries in the order the chunking test needs: an empty ball
# between non-empty ones, a query whose run alone exceeds a small block,
# runs that touch either end, and empty balls beyond both ends
RUN_SENSORS = np.concatenate([
    [0.0, 0.01, 0.02], [0.3], np.arange(10) / 100 + 0.5, [0.7, 0.71], [0.98, 0.99, 1.0],
])
RUN_QUERIES = np.array([-0.035, 0.2, 0.3, 0.42, 0.705, 0.545, 5.0, 1.035, -5.0, 0.025])


def _run_network(protocol, sid, mode):
    scen = make_scenario(sid)
    # clamp c_n to 0.5 so that some reg_abstain labels fall outside it
    net = train_network(
        protocol, scen, len(RUN_SENSORS), Schedule(0.4, 0.2, clamp=0.5), seed=3,
        coin_mode=mode,
    )
    order = np.random.default_rng(4).permutation(len(RUN_SENSORS))  # unsorted storage
    return dataclasses.replace(net, xs=RUN_SENSORS[order][:, None], r_n=0.05)


@pytest.mark.parametrize("block", [4, 1 << 15])
@pytest.mark.parametrize(
    "protocol,sid,mode",
    [
        ("reg_abstain", "sine_1d", "per_sensor"),
        ("reg_noabstain", "sine_1d", "per_sensor"),
        ("cls_noabstain", "gauss_mix_1d", "per_query"),
    ],
)
def test_1d_run_gather_edge_cases(protocol, sid, mode, block, monkeypatch):
    # each chunk of in-ball pairs is hashed by one run_bits call, whose
    # runs give the chunk's per-query counts
    chunks = []
    healthy = pd.run_bits

    def run_bits(keys, qkeys, lo, hi, out):
        chunks.append([b - a for a, b in zip(lo, hi)])
        return healthy(keys, qkeys, lo, hi, out)

    monkeypatch.setattr(pd, "run_bits", run_bits)
    monkeypatch.setattr(pd, "_PAIR_BLOCK", block)
    net = _run_network(protocol, sid, mode)
    queries = RUN_QUERIES[:, None]
    batch = pd.predict_batch(net, queries, coin_seed=77)
    if protocol == "cls_noabstain":  # counts labels: no pairs, no chunks
        assert chunks == []
    elif block == 4:
        assert chunks == [[2, 0, 1, 0], [2], [10], [0, 2, 0], [3]]
    else:
        assert chunks == [[2, 0, 1, 0, 2, 10, 0, 2, 0, 3]]
    np.testing.assert_array_equal(
        batch.values.astype(float), scalar_predict(net, queries, 77)
    )


def test_two_arm_bias_table_matches_one_row_calls(monkeypatch):
    monkeypatch.setattr(pd, "_PAIR_BLOCK", 17)
    rng = np.random.default_rng(8)
    net = train_network(
        "reg_abstain", make_scenario("sine_1d"), 80, Schedule(0.2, 0.2, clamp=0.5), seed=6
    )
    net = dataclasses.replace(net, xs=rng.random((80, 1)))
    # the last two queries lie far outside the unit box: their balls are empty
    queries = np.vstack([rng.random((40, 1)), np.full((2, 1), 5.0)])
    order, lo, hi = pd._runs(net.xs[:, 0], net.r_n, queries)
    keys = CoinSource(4).sensor_keys(order)
    biases = rng.random((2, net.n)) * 2.0**53  # the kernel takes biases scaled by 2^53
    counts, votes = pd._in_ball_votes(keys, lo, hi, biases)
    assert counts[-2:].tolist() == [0, 0] and counts.sum() > 17
    for row in range(2):
        one_counts, one_votes = pd._in_ball_votes(keys, lo, hi, biases[row:row + 1])
        np.testing.assert_array_equal(one_counts, counts)
        np.testing.assert_array_equal(one_votes[0], votes[row])
    # the engine: both regression rules in one call, each as it is alone
    arms = (net, dataclasses.replace(net, protocol="reg_noabstain", c_n=0.7))
    both = pd.predict_batch(arms, queries, coin_seed=4)
    assert both.values.shape == both.responders.shape == (2, len(queries))
    for arm, got in zip(arms, both.arms()):
        alone = pd.predict_batch(arm, queries, coin_seed=4)
        np.testing.assert_array_equal(got.values, alone.values)
        np.testing.assert_array_equal(got.responders, alone.responders)


def test_integer_bias_test_is_the_uniform_test(monkeypatch):
    # the kernel tests k < b * 2^53 (k: a coin's top 53 bits, b * 2^53: the
    # table batch_regression scales in place); that is the uniform < b at
    # the biases where a rounding would show, and at biases out of [0, 1]
    rng = np.random.default_rng(12)
    top = 2**53 - 1
    biases, coins = [], []
    for b in (
        0.0, 5e-324, 2.0**-53, np.nextafter(0.5, 0), 0.5, np.nextafter(0.5, 1),
        1 - 2.0**-53, 1.0, -0.25, 1.5,
    ):
        edge = math.ceil(b * 2.0**53)
        for k in (edge - 1, edge, 0, top):
            if 0 <= k <= top:  # random low 11 bits, which the test must ignore
                biases.append(b)
                coins.append(k << 11 | int(rng.integers(1 << 11)))
    biases, coins = np.array(biases), np.array(coins, dtype=np.uint64)

    def run_bits(keys, qkeys, lo, hi, out):  # query j's run is sensor j
        assert list(zip(lo, hi)) == [(j, j + 1) for j in range(len(coins))]
        out[:len(coins)] = coins
        return out[:len(coins)]

    monkeypatch.setattr(pd, "run_bits", run_bits)
    xs = np.arange(len(coins), dtype=float)[:, None]
    order, lo, hi = pd._runs(xs[:, 0], 0.25, xs)
    keys = CoinSource(0).sensor_keys(order)
    counts, votes = pd._in_ball_votes(keys, lo, hi, biases[None, :] * 2.0**53)
    expected = (coins >> np.uint64(11)).astype(float) * 2.0**-53 < biases
    assert counts.tolist() == [1] * len(coins) and 0 < expected.sum() < len(coins)
    np.testing.assert_array_equal(votes[0], expected)


def test_reg_abstain_labels_on_the_clamp_keep_their_bias():
    # a label at exactly +-c_n has bias 1 or 0 (y / 2c + 1/2), so its sensor
    # votes the same bit on every query; one float beyond the clamp, the
    # label is censored to a fair coin and its votes differ across queries
    net = train_network(
        "reg_abstain", make_scenario("sine_1d"), 4, Schedule(0.4, 0.2, clamp=0.5), seed=3
    )
    c = net.c_n
    labels = np.array([c, -c, np.nextafter(c, np.inf), np.nextafter(-c, -np.inf)])
    queries = np.full((64, 1), 0.5)
    coins = CoinSource(41)

    def scalar_votes(network):  # (query, sensor) responses of the scalar rule
        return np.array([
            [
                protocols.respond_reg_abstain(
                    network.sensor(i), x, network.r_n, c, coins.uniform(i, q)
                )
                for i in range(network.n)
            ]
            for q, x in enumerate(queries)
        ])

    def check(network):
        votes = scalar_votes(network)
        expected = [protocols.fuse_reg_abstain(list(row), c) for row in votes]
        got = pd.predict_batch(network, queries, coin_seed=41).values
        np.testing.assert_array_equal(got, expected)
        return votes

    votes = check(dataclasses.replace(net, xs=np.full((4, 1), 0.5), ys=labels))
    assert (votes[:, 0] == protocols.Response.VOTE1).all()
    assert (votes[:, 1] == protocols.Response.VOTE0).all()
    for beyond in (2, 3):
        assert 0 < np.count_nonzero(votes[:, beyond] == protocols.Response.VOTE1) < 64
    for y in labels:  # and each label alone, where the estimate is its one vote
        check(dataclasses.replace(net, xs=np.full((1, 1), 0.5), ys=np.array([y])))


# sha256 of a two-arm predict_batch's values (both arms, float64 bytes) on
# 200,000 sensors, pinned from the engine that concatenated each chunk's
# pairs: the ~335k in-ball pairs span about ten _PAIR_BLOCK chunks, and at
# the clamp c_n = 0.5 most labels lie outside it, where reg_abstain's bias
# is 1/2 and reg_noabstain's is clipped to 0 or 1
MULTI_CHUNK_DIGEST = "13367dc1b19568ed5686ebc4c76c09c9544c4d7b709b7497e28cdc6b95e7c37b"


def _two_arm_network(n, r0, beta, seed):
    net = train_network(
        "reg_noabstain", make_scenario("sine_1d"), n, Schedule(r0, beta, clamp=0.5), seed
    )
    return net, dataclasses.replace(net, protocol="reg_abstain")


def test_multi_chunk_two_arm_values_match_golden_digest():
    arms = _two_arm_network(200_000, 0.2, 0.35, seed=31)
    queries, _ = make_scenario("sine_1d").sample(np.random.default_rng(32), 300)
    both = pd.predict_batch(arms, queries, coin_seed=2**63 + 33)
    assert both.responders[1].sum() > 8 * pd._PAIR_BLOCK
    digest = hashlib.sha256(np.asarray(both.values, dtype=np.float64).tobytes()).hexdigest()
    assert digest == MULTI_CHUNK_DIGEST


_SMALL, _LARGE = 100_000, 400_000
# bytes a sensor that one call's peak may grow by: three 8-byte n-sized
# tables and 4 bytes of slack
_MEMORY_SLOPE = 3 * 8 + 4


def _slope(call, inputs):
    """The growth in bytes per sensor of ``call(input)``'s traced peak, from
    the input at ``_SMALL`` sensors to the one at ``_LARGE``. The slope
    cancels buffers whose size does not grow with n."""
    def peak(x):
        tracemalloc.start()
        try:
            call(x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    low, high = (peak(x) for x in inputs)
    return (high - low) / (_LARGE - _SMALL)


def _peak_slope(networks, queries):
    """The ``_slope`` of one ``predict_batch`` call over ``networks``."""
    return _slope(lambda net: pd.predict_batch(net, queries, coin_seed=9), networks)


def _two_arm_memory_inputs():
    """The two-arm guard's queries and its arm pairs at ``_SMALL`` and
    ``_LARGE`` sensors, on a radius whose balls hold over 4M pairs."""
    pd.load_engine("reg_noabstain", 1, "per_sensor")
    queries, _ = make_scenario("sine_1d").sample(np.random.default_rng(8), 2_000)

    def arms_at(n):
        net, twin = _two_arm_network(n, 0.2, 0.2, seed=7)
        return tuple(dataclasses.replace(a, r_n=0.0125) for a in (net, twin))

    return (arms_at(_SMALL), arms_at(_LARGE)), queries


def test_two_arm_prediction_memory_is_its_n_tables_and_chunk_buffers():
    # one call holds at most three n-sized tables at a time (the sort order,
    # the padded coordinates and np.take's buffer while the runs are found;
    # then the sort order, which becomes the sensor keys, and one bias row
    # per arm) and buffers whose size does not grow with n: three 8-byte
    # tables and 4 bytes of slack (the clamp masks take 2) per sensor. A
    # fourth table (keeping the padded coordinates through the pair pass,
    # or copying the keys) adds 8 and fails the two-arm call; an array over
    # the ~5-20M pairs adds about 400. The one-arm call is the demo's probe
    # path. The guessers' scipy import happens before tracing, or the first
    # peak would hold it
    arms, queries = _two_arm_memory_inputs()
    assert pd.flag_counts(arms[0][0].xs, 0.0125, queries, [])[0].sum() > 4_000_000
    for pick in (lambda a: a, lambda a: a[0]):
        assert _peak_slope([pick(a) for a in arms], queries) <= _MEMORY_SLOPE


_1D_CLASSIFICATION = [
    ("cls_abstain", "per_sensor"), ("cls_noabstain", "per_sensor"),
    ("cls_noabstain", "per_query"),
]


def _1d_classification_memory_inputs(protocol, mode, scenario_id="gauss_mix_1d"):
    """The 1-d classification guard's networks at ``_SMALL`` and
    ``_LARGE`` sensors and its queries, or the same on ``scenario_id``."""
    scenario = make_scenario(scenario_id)
    pd.load_engine(protocol, scenario.dimension, mode)
    queries, _ = scenario.sample(np.random.default_rng(8), 2_000)
    networks = [
        dataclasses.replace(
            train_network(protocol, scenario, n, Schedule(0.2, 0.2), 7, coin_mode=mode),
            r_n=0.0125,
        )
        for n in (_SMALL, _LARGE)
    ]
    return networks, queries


@pytest.mark.parametrize("protocol,mode", _1D_CLASSIFICATION)
def test_1d_classification_memory_is_its_n_tables(protocol, mode):
    # the 1-d counts hold the same three 8-byte tables while the runs are
    # found, and one byte per flag (the labels and the fixed coins as bools):
    # 26 to 27 bytes a sensor. An int64 copy of a flag adds 8 and fails
    assert _peak_slope(*_1d_classification_memory_inputs(protocol, mode)) <= _MEMORY_SLOPE


# bytes a sensor that one d >= 2 call's peak may grow by: the 41 measured
# for one flag, 42 for two, and 4 bytes of slack
_2D_COUNTS_SLOPE = 42 + 4


@pytest.mark.parametrize("protocol,mode", _1D_CLASSIFICATION)
def test_2d_counts_memory_is_its_n_tables(protocol, mode):
    # the strip index peaks while the runs on the second coordinate are
    # found: the first one's x-ranks, the sort order, the padded
    # coordinates, np.take's buffer and the strided column's contiguous
    # copy (8 bytes each), and one byte per flag. Held through the queries
    # are the keys, the points in key order and the flag table (27 to 28
    # bytes). Another 8-byte n-sized table held through the call fails
    networks, queries = _1d_classification_memory_inputs(protocol, mode, "gauss_mix_2d")
    assert _peak_slope(networks, queries) <= _2D_COUNTS_SLOPE


_SPECIALISTS = ["cityscape_2d", "checkerboard_2d"]
_SPECIALISTS_SLOPE = 104 + 4


def _specialists_training_slope(scenario_id):
    scenario = make_scenario(scenario_id)
    return _slope(
        lambda n: train_network("specialists", scenario, n, Schedule(0.5, 0.2), seed=1),
        (_SMALL, _LARGE),
    )


@pytest.mark.parametrize("scenario_id", _SPECIALISTS)
def test_specialists_training_memory_is_its_n_tables(scenario_id):
    # training keeps 40 bytes a sensor (xs and the centers at 16 each, ys at
    # 8). The unit-box sampler peaks in its first round's in-ball test, with
    # the centers, the clipped corner, the box's span, the proposals, their
    # differences to the centers and those squared (16 each) and the summed
    # squares (8): 104. Another float64 n-sized array held while the
    # sampler runs adds 8 and fails
    assert _specialists_training_slope(scenario_id) <= _SPECIALISTS_SLOPE


def _specialists_prediction_inputs(scenario_id):
    """The specialists networks at ``_SMALL`` and ``_LARGE`` sensors, at
    the other guards' radius, and 2,000 queries."""
    scenario = make_scenario(scenario_id)
    queries, _ = scenario.sample(np.random.default_rng(8), 2_000)
    networks = [
        dataclasses.replace(
            train_network("specialists", scenario, n, Schedule(0.5, 0.2), seed=1),
            r_n=0.0125,
        )
        for n in (_SMALL, _LARGE)
    ]
    return networks, queries


@pytest.mark.parametrize("scenario_id", _SPECIALISTS)
def test_specialists_prediction_memory_is_its_n_tables(scenario_id):
    # a specialists network answers through the d >= 2 counts on its
    # centers and labels as they are stored: no copy of either, so the
    # peak is the strip index's 41 bytes a sensor for one flag
    assert _peak_slope(*_specialists_prediction_inputs(scenario_id)) <= _2D_COUNTS_SLOPE


_GUESSER_SLOPE = 0.5


def _guesser_crowd_slope():
    pd.load_engine("cls_noabstain", 1, "per_query")
    counts = np.random.default_rng(3).integers(0, 50, 2_000)
    return _slope(lambda n: pd._guesser_votes(CoinSource(9), n, counts), (_SMALL, _LARGE))


def test_guesser_crowd_memory_does_not_grow_with_n():
    # the crowd's binomial quantiles hold query-sized arrays only (about
    # 150 kB at 2,000 queries, whatever n): half a byte a sensor of slack
    # fails any n-sized array
    assert _guesser_crowd_slope() <= _GUESSER_SLOPE


def test_arms_must_share_one_training_set():
    net = train_network(
        "reg_abstain", make_scenario("sine_1d"), 30, Schedule(0.2, 0.2, 1.0, 0.1), seed=6
    )
    queries = np.array([[0.5]])
    for other in (
        dataclasses.replace(net, xs=net.xs.copy()),
        dataclasses.replace(net, r_n=net.r_n / 2),
        dataclasses.replace(net, protocol="cls_abstain"),
    ):
        with pytest.raises(ValueError, match="^network: arms must"):
            pd.predict_batch((net, other), queries, coin_seed=1)


def test_regression_engines_refuse_a_network_above_one_dimension():
    net = train_network(
        "reg_abstain", make_scenario("sine_1d"), 30, Schedule(0.2, 0.2, 1.0, 0.1), seed=6
    )
    flat = dataclasses.replace(net, xs=np.hstack([net.xs, net.xs]))
    for network in (flat, (flat, dataclasses.replace(flat, protocol="reg_noabstain"))):
        with pytest.raises(ValueError, match="^network: the regression engines run in one"):
            pd.predict_batch(network, np.array([[0.5, 0.5]]), coin_seed=1)


def test_queries_must_have_the_network_dimension():
    net = train_network(
        "cls_abstain", make_scenario("gauss_mix_1d"), 30, Schedule(0.2, 0.2), seed=6
    )
    reg = train_network(
        "reg_abstain", make_scenario("sine_1d"), 30, Schedule(0.2, 0.2, 1.0, 0.1), seed=6
    )
    arms = (reg, dataclasses.replace(reg, protocol="reg_noabstain"))
    for network in (net, reg, arms):
        # three points as one flat array, and two-column rows
        for queries in (np.array([-2.0, 0.0, 2.0]), np.zeros((4, 2))):
            with pytest.raises(ValueError, match=r"^queries: expected a \(k, 1\) array"):
                pd.predict_batch(network, queries, coin_seed=1)
        assert pd.predict_batch(network, np.zeros((4, 1)), coin_seed=1).values.shape[-1] == 4
    with pytest.raises(ValueError, match="^network: "):
        pd.predict_batch((), np.zeros((2, 1)), coin_seed=1)


def test_untrainable_specialists_are_silent():
    scen = make_scenario("cityscape_2d")
    net = train_network("specialists", scen, 40, Schedule(0.3, 0.2), seed=3)
    assert net.trained
    # a NaN radius too: its balls would admit every point as a candidate
    for flagged in (dataclasses.replace(net, r_n=0.0), dataclasses.replace(net, r_n=np.nan)):
        assert not flagged.trained and flagged.sensor(0).datum is None
        batch = pd.predict_batch(flagged, np.array([[0.5, 0.5], [0.2, 0.9]]), coin_seed=1)
        assert batch.all_abstain_frac == 1.0
        assert batch.abstain_rate == 1.0
        np.testing.assert_array_equal(batch.values, [0, 0])
        np.testing.assert_array_equal(batch.responders, [0, 0])
        labeled = pd.predict_batch(
            flagged, np.array([[0.5, 0.5]]), coin_seed=1, default_label=1
        )
        np.testing.assert_array_equal(labeled.values, [1])


def test_abstention_telemetry():
    scen = make_scenario("gauss_mix_1d")
    net = train_network("cls_abstain", scen, 50, Schedule(0.2, 0.3), seed=4)
    queries, _ = scen.sample(np.random.default_rng(5), 30)
    batch = pd.predict_batch(net, queries, coin_seed=2)
    expected_responders = _in_ball_counts(net.xs, queries, net.r_n)
    np.testing.assert_array_equal(batch.responders, expected_responders)
    total = 50 * 30
    assert batch.abstain_rate == pytest.approx(1 - expected_responders.sum() / total)
    assert batch.all_abstain_frac == pytest.approx(np.mean(expected_responders == 0))


@pytest.mark.parametrize(
    "protocol,sid,mode",
    CASES + [("cls_noabstain", "gauss_mix_2d", "per_sensor")],
)
def test_empty_network(protocol, sid, mode):
    scen = make_scenario(sid)
    net = train_network(protocol, scen, 0, Schedule(0.5, 0.3), seed=1, coin_mode=mode)
    batch = pd.predict_batch(net, np.zeros((5, scen.dimension)), coin_seed=0)
    np.testing.assert_array_equal(batch.values, np.zeros(5))
    assert batch.all_abstain_frac == 1.0
    assert batch.abstain_rate == 0.0  # no sensors, no responses to count


def test_reg_noabstain_matches_exact_moments():
    # the guess crowd is drawn in aggregate, so check the first two moments
    # of the estimate against the exact vote distribution at a fixed query
    scen = make_scenario("sine_1d", noise=0.1)
    net = train_network(
        "reg_noabstain", scen, 25, Schedule(0.5, 0.3, c0=2.0), seed=8
    )
    x = np.array([0.3])
    rounds = 20_000
    queries = np.tile(x, (rounds, 1))
    batch = pd.predict_batch(net, queries, coin_seed=99)
    inside = in_ball(net.xs, x, net.r_n)
    biases = np.where(inside, np.clip(net.ys / 4.0 + 0.5, 0, 1), 0.5)
    mean_exact = 2 * 2.0 * (biases.mean() - 0.5)
    var_exact = (2 * 2.0 / 25) ** 2 * np.sum(biases * (1 - biases))
    assert batch.values.mean() == pytest.approx(
        mean_exact, abs=4 * np.sqrt(var_exact / rounds)
    )
    assert batch.values.var() == pytest.approx(var_exact, rel=0.1)


def test_reg_noabstain_mse_matches_exact_oracle():
    scen = make_scenario("sine_1d", noise=0.1)
    net = train_network(
        "reg_noabstain", scen, 15, Schedule(0.5, 0.3, c0=2.0), seed=10
    )
    x = np.array([0.6])
    exact = exact_conditional_error_at_x(net, scen, x)
    rng = np.random.default_rng(11)
    rounds = 150_000
    queries = np.tile(x, (rounds, 1))
    batch = pd.predict_batch(net, queries, coin_seed=12)
    ys = scen.sample_y_given_x(queries, rng)
    mc = np.mean((batch.values - ys) ** 2)
    assert abs(mc - exact) <= 0.02


def test_binom_ppf_matches_scipy_stats():
    # 2^20 draws with m log-uniform up to 1e8: half with u uniform, half
    # with u in the log-uniform tails, all below 1 - 2^-30
    rng = np.random.default_rng(8)
    half = 1 << 19
    m = np.floor(10.0 ** rng.uniform(0, 8, 2 * half)) - 1
    tail = 2.0 ** -rng.uniform(1, 30, half)
    u = np.concatenate([
        rng.random(half) * (1 - 2.0**-30), np.where(rng.random(half) < 0.5, tail, 1 - tail)
    ])
    np.testing.assert_array_equal(pd.binom.ppf(u, m), binom.ppf(u, m, 0.5))


def test_binom_ppf_of_no_guessers_is_zero():
    np.testing.assert_array_equal(pd.binom.ppf([pd._TINY, 0.5, 1 - 2.0**-53], 0), 0.0)


@pytest.mark.parametrize(
    "m,u,exact",
    [
        # bdtr reads CDF(4,268,930) as 0.504526 >= u; it is 0.503959
        (8_537_832, 0.5042, 4_268_931),
        # upper tails, exact from the tail summed at 50 digits, where
        # scipy.stats answers 219, 504,145, 504,079 and 4,281,030
        (300, 1 - 2.0**-53, 220),
        (10**6, 1 - 2.0**-53, 504_105),
        (10**6, 1 - 2.0**-52, 504_063),
        (8_537_832, 1 - 2.0**-53, 4_280_910),
    ],
)
def test_binom_ppf_exact_values(m, u, exact):
    assert pd.binom.ppf(u, m) == exact


# sha256 of predict_batch(...).values as float64 bytes, pinned from the
# engine that folded every (sensor, query) pair through the full seed path;
# a changed coin, or a sensor paired with the wrong query, moves a digest.
# The two per-query cls_noabstain digests pin the guesser crowd's draw, one
# Binomial(m, 1/2) quantile per query, as re-pinned once the engine matched
# scalar_predict
GOLDEN_DIGESTS = {
    ("reg_abstain", "sine_1d"):
        "552f20088a451472c20e01892701cafdf74263b73f759f83fa0b44c0139eb918",
    ("reg_noabstain", "sine_1d"):
        "23a890151255089e6c97c0da4e2887e1b9b45f82199c489f7fb847ce1d8b6118",
    ("cls_noabstain", "gauss_mix_1d"):
        "96253fd1cea947cec56aedfc411d17e4840ba5f8077488c26b7967765a493f9f",
    ("cls_noabstain", "checkerboard_2d"):
        "f4b1ec471a0939c4a9be8e2ce822ed7a58a912b21bc378f6b8bd91990417c191",
}


def _golden_network(protocol, sid):
    sched = Schedule(0.4, 0.2, 1.0, 0.1)
    scen = make_scenario(sid)
    if protocol == "cls_noabstain":
        net = train_network(protocol, scen, 300, sched, seed=5, coin_mode="per_query")
        return net, scen
    net = train_network(protocol, scen, 300, sched, seed=5)
    if protocol == "reg_noabstain":  # the fixed amplitude the digests were pinned at
        net = dataclasses.replace(net, c_n=2.0)
    return net, scen


@pytest.mark.parametrize("protocol,sid", sorted(GOLDEN_DIGESTS))
def test_batch_values_match_golden_digest(protocol, sid):
    net, scen = _golden_network(protocol, sid)
    queries, _ = scen.sample(np.random.default_rng(21), 50)
    values = pd.predict_batch(net, queries, coin_seed=2**63 + 11).values
    digest = hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()
    assert digest == GOLDEN_DIGESTS[protocol, sid]
