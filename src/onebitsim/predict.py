"""Vectorized query evaluation for trained networks.

These engines answer whole batches of queries with numpy/scipy kernels but
reproduce the per-sensor protocol semantics exactly: the response coin for
sensor i on query q is always the addressable uniform at (i, q), so batch
results match a sensor-by-sensor evaluation bit for bit wherever one is
feasible. The one deliberate exception is the crowd of fresh fair-coin
guessers outside the ball in both no-abstention rules (``reg_noabstain``
and per-query ``cls_noabstain``): their vote total is drawn as one
Binomial(m, 1/2) variate per query (``binom``'s inverse CDF, from
``scipy.special``, at the uniform of the address (n, q)), which has
exactly the right distribution and keeps million-sensor networks
tractable.

Every engine uses the closed ball of ``scenarios.in_ball``: a sorted-array
search in one dimension, and above it a strip index on the first two
coordinates whose candidates meet ``in_ball``'s own squared-distance test.
The regression engine runs in one dimension (the
one regression scenario, ``sine_1d``, has one) and lists in-ball (sensor,
query) pairs in one place, ``_in_ball_votes``, in chunks of about
``_PAIR_BLOCK`` pairs, so peak memory stays bounded regardless of how many
pairs a batch touches. The sensors are sorted by coordinate, so a query's
in-ball sensors are one contiguous run. The engine finds every query's
run first with ``_runs``, the only place the padded sorted coordinates
live, builds one bias row per arm in sorted order, and then turns the
sort order itself into the sensor coin keys in place, so the pair pass
holds three n-sized tables for two arms (the keys and the two bias rows)
and two for one arm. A chunk's coins fill two reused buffers: each
query's run of sensor keys is hashed with the query's key in place
(``run_bits``), and each run's coins then meet the same run of each bias
row, so no pair-sized key, bias or position array is built. It answers
arms that share a training set at once: each in-ball coin, hashed once,
meets one row per arm of an ``(arms, n)`` bias table, which
``batch_regression`` scales by 2^53 in place so that a coin's top 53
bits compare with it exactly (``_in_ball_votes`` says why).

The classification rules (``cls_abstain``, ``specialists`` and
``cls_noabstain``, whose fixed coins or guesser crowd answer outside the
ball) need only counts of in-ball 0/1 flags (``flag_counts``), so they
enumerate no pairs. In one dimension they take integer prefix sums over
the runs of ``_runs``; above it, the runs of ``_runs`` on each of the
first two coordinates bound each ball, and ``flag_counts`` tests only the
points of both windows, strip by strip.

Coins are hashed with the key/counter split of ``seeding``: one sensor key
per sensor and one query key per query per call, then one mix per pair,
bit for bit the scalar ``CoinSource.uniform`` at the pair's address.

Importing this module loads no scipy submodule. ``scipy.special``
(``binom``) loads where it is first called, and ``load_engine`` loads it
while the config of a run that needs it is built. So ``cls_abstain``,
``specialists``, fixed-coin ``cls_noabstain`` and ``reg_abstain`` run
without it, in every dimension, and no engine loads ``scipy.spatial``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocols import NetworkState, protocol_spec
from .seeding import CoinSource, query_keys, run_bits

_PAIR_BLOCK = 1 << 15  # pairs per chunk: every per-pair array stays in cache
_CANDIDATE_BLOCK = 1 << 14  # strip candidates per slice: their ~50 bytes each stay in cache
_TINY = np.finfo(float).tiny


class _FairBinomial:
    """Quantiles of X ~ Binomial(m, 1/2), exact at every m."""

    def ppf(self, u, m):
        """The smallest k with P(X <= k) >= u, as a float array. From the
        normal approximation's guess, k steps on ``betainc``: the CDF below
        u = 1/2, and above it the survival function against 1 - u, exact there."""
        from scipy.special import betainc, ndtri

        u = np.asarray(u, dtype=float)
        low = u < 0.5

        def covers(k):  # P(X <= k) >= u; bdtr misreads it above m ~ 2.5e6
            tail = betainc(np.where(low, m - k, k + 1), np.where(low, k + 1, m - k), 0.5)
            return (k >= m) | np.where(low, tail >= u, tail <= 1 - u)

        # the guess is NaN only at m = 0 with u = 0 or 1, where the quantile is 0
        k = np.clip(np.nan_to_num(np.ceil(m / 2 + np.sqrt(m) / 2 * ndtri(u) - 0.5)), 0, m)
        while (down := (k > 0) & covers(k - 1)).any():
            k = k - down
        while (up := ~covers(k)).any():
            k = k + up
        return k


# a module-level name, called as a plain global: perfbench's
# ``predict.binom`` hook (and its ``predict.binom_s`` metric) wraps it
binom = _FairBinomial()


def cKDTree(points):
    """``scipy.spatial.cKDTree(points)``, which no engine calls: kept only
    because perfbench's ``predict.kdtree`` hook installs on this name, and
    without it every traced run would lose the hook's metrics."""
    from scipy.spatial import cKDTree as tree

    return tree(points)


@dataclass(frozen=True)
class PredictionBatch:
    """Fused predictions for a batch of queries plus abstention telemetry."""

    values: np.ndarray      # label (classification) or estimate (regression)
    responders: np.ndarray  # non-abstaining sensors per query
    n_sensors: int

    @property
    def abstain_rate(self) -> float:
        """Abstaining (sensor, query) responses over all responses."""
        total = self.n_sensors * self.responders.size
        if total == 0:
            return 0.0
        return 1.0 - float(self.responders.sum()) / total

    @property
    def all_abstain_frac(self) -> float:
        """Fraction of queries on which every sensor abstained."""
        if self.responders.size == 0:
            return 0.0
        return float(np.mean(self.responders == 0))

    def arms(self) -> list["PredictionBatch"]:
        """One batch per arm of a several-arm result (leading arm axis)."""
        return [PredictionBatch(*arm, self.n_sensors) for arm in zip(self.values, self.responders)]


def _runs(flat: np.ndarray, radius: float, queries: np.ndarray):
    """1-d: the sort order of the coordinates ``flat`` (it maps each
    storage position to its original index) and each query's in-ball run
    [lo, hi) of storage positions: exactly the points ``in_ball`` admits.
    Bisection on q - r and q + r is the first guess; then each end steps
    across one group of tied coordinates at a time, outward while the
    point just outside the run is in the ball, inward while the point just
    inside it is out on that end's side of q.

    The test is ``in_ball``'s, on signed squares s = d * |d| of
    d = x - q (exactly +-d*d), without its reduce over a trailing axis.
    The outer point stays on its end's side of q, so s >= -r*r (left)
    and s <= r*r (right) put it in the ball; s < -r*r and s > r*r put
    an inner point out of it on its own side. NaN sentinels past the
    ends fail every comparison, so they never move."""
    order = np.argsort(flat)
    # the sorted coordinates between NaN sentinels, which no ball holds
    # even once r * r overflows, so a run's neighbors exist; they live
    # only until the runs are found
    pad = np.full(len(flat) + 2, np.nan)
    x = np.take(flat, order, out=pad[1:-1])
    r, q = radius, queries[:, 0]
    lo = np.searchsorted(x, q - r, side="left")
    hi = np.searchsorted(x, q + r, side="right")
    t, rr = len(q), r * r
    qq = np.concatenate((q, q))
    while True:
        ends = np.concatenate((lo, hi))
        before = pad.take(ends)     # the points at lo - 1 and hi - 1
        after = pad[1:].take(ends)  # at lo and hi
        a, b = before - qq, after - qq
        a *= np.abs(a)
        b *= np.abs(b)
        moves = (a[:t] >= -rr, b[:t] < -rr, a[t:] > rr, b[t:] <= rr)
        if not any(map(np.count_nonzero, moves)):
            return order, lo, hi
        lo = np.where(moves[0], np.searchsorted(x, before[:t], side="left"), lo)
        lo = np.where(moves[1], np.searchsorted(x, after[:t], side="right"), lo)
        hi = np.where(moves[2], np.searchsorted(x, before[t:], side="left"), hi)
        hi = np.where(moves[3], np.searchsorted(x, after[t:], side="right"), hi)


def flag_counts(points: np.ndarray, radius: float, queries: np.ndarray, flags: list):
    """Per-query count of the ``points`` within ``radius`` of each query
    and, for each 0/1 vector in ``flags``, of those whose flag is set (all
    int64): prefix sums over the runs of ``_runs`` in one dimension, and
    above it a strip index over the runs on the first two coordinates.

    The strip index. ``_runs`` on coordinate 0 and on coordinate 1 gives
    each query's exact window on each axis, the points with fl(d*d) <= r*r
    there. The two windows hold the ball: rounding is monotone, so a sum of
    nonnegative squares that passes ``in_ball``'s test is at least each of
    its terms. The points are cut into strips of ``w`` consecutive x-ranks
    and stored by (strip, y-rank), so each strip that a query's x-window
    touches holds its y-window as one run, found by bisecting the sorted
    int64 keys strip * n + y-rank. ``w`` is a quarter of the mean x-window
    (at least 1), so a batch of t queries has at most 10 t runs however
    the windows spread. The runs' points are the candidates. They are
    tested in slices of ``_CANDIDATE_BLOCK``, whatever the radius, with
    ``in_ball``'s own arithmetic over every coordinate (the squared
    differences summed in coordinate order, then ``<= r*r``). Each count
    and flag sum of a slice is a difference of the hits' ranks at its
    query boundaries."""
    flags = [np.asarray(f) != 0 for f in flags]
    if points.shape[1] == 1:
        order, lo, hi = _runs(points[:, 0], radius, queries)
        sums = []
        for f in flags:
            pref = np.zeros(len(f) + 1, dtype=np.int64)
            np.cumsum(f[order], out=pref[1:])
            sums.append(pref[hi] - pref[lo])
        return hi - lo, sums
    n, t = len(points), len(queries)
    totals = np.zeros((1 + len(flags), t), dtype=np.int64)  # counts, then sums
    if n == 0 or t == 0:
        return totals[0], list(totals[1:])
    order, lo, hi = _runs(points[:, 0], radius, queries)
    xrank = np.empty(n, dtype=np.int64)
    xrank[order] = np.arange(n)
    del order
    w = max(1, int((hi - lo).mean()) // 4)
    order, ylo, yhi = _runs(points[:, 1], radius, queries[:, 1:])
    key = xrank.take(order)  # in y order: the x-rank, then strip * n + y-rank
    del xrank
    key //= w
    key *= n
    key += np.arange(n)
    key.sort()
    index = order.take(key % n)  # the point at each key
    del order
    # the points' coordinates in key order, one column at a time
    columns = [points[:, k].take(index) for k in range(points.shape[1])]
    table = np.ones((1 + len(flags), n), dtype=bool)  # a count row, then the flags
    for row, f in zip(table[1:], flags):
        f.take(index, out=row)
    del index
    # one run per (query, strip): the strips from lo // w to (hi - 1) // w
    strips = np.where(hi > lo, (hi - 1) // w - lo // w + 1, 0)
    owner = np.repeat(np.arange(t), strips)
    strip = np.arange(len(owner)) - np.repeat(np.cumsum(strips) - strips - lo // w, strips)
    strip *= n
    start = np.searchsorted(key, strip + ylo[owner])
    length = np.searchsorted(key, strip + yhi[owner]) - start
    ends = np.cumsum(length)  # in the candidate sequence, run by run
    shift = start - (ends - length)  # a candidate's key position minus its index
    bounds = np.concatenate(([0], ends))[np.concatenate(([0], np.cumsum(strips)))]
    centers = [queries[:, k].take(owner) for k in range(points.shape[1])]  # run by run
    ramp = np.arange(_CANDIDATE_BLOCK)
    rr = radius * radius
    for c0 in range(0, int(bounds[-1]), _CANDIDATE_BLOCK):
        c1 = min(c0 + _CANDIDATE_BLOCK, int(bounds[-1]))
        j0 = int(np.searchsorted(ends, c0, side="right"))
        j1 = int(np.searchsorted(ends, c1, side="left")) + 1
        lens = length[j0:j1].copy()
        lens[0] -= c0 - (ends[j0] - length[j0])
        lens[-1] -= ends[j1 - 1] - c1
        at = np.repeat(shift[j0:j1], lens)
        at += ramp[:c1 - c0]
        at += c0
        total = np.zeros(c1 - c0)  # 0 + s is s: the squares add in in_ball's order
        for column, center in zip(columns, centers):
            diff = column.take(at)
            diff -= np.repeat(center[j0:j1], lens)
            diff *= diff
            total += diff
        hits = table.take(at, axis=1)
        hits &= total <= rr
        q0, q1 = int(owner[j0]), int(owner[j1 - 1]) + 1
        edges = np.clip(bounds[q0:q1 + 1], c0, c1) - c0
        for row, out in zip(hits, totals):
            out[q0:q1] += np.diff(np.flatnonzero(row).searchsorted(edges))
    return totals[0], list(totals[1:])


def _in_ball_votes(keys, lo, hi, scaled):
    """Per-query counts of in-ball sensors, the runs [lo, hi) of storage
    positions, and, for each row of the (arms, n) storage-order table
    ``scaled`` (biases times 2^53), of those whose coin at (sensor, query),
    hashed once for all rows from the storage-order sensor ``keys``, falls
    below the row's bias.

    Whole queries go in chunks of at most ~``_PAIR_BLOCK`` in-ball pairs (a
    single query may exceed it), hashed into one reused buffer. A coin's
    top 53 bits k, cast once to float (exact, as k < 2^53), meet each
    row's slice for the same run. The coin's uniform is u = k * 2^-53, and
    scaling by a power of two is exact, so k < b * 2^53 exactly when u < b."""
    t = len(lo)
    qkeys = query_keys(np.arange(t))
    counts = hi - lo
    votes = np.zeros((len(scaled), t), dtype=np.int64)
    size = max(_PAIR_BLOCK, int(counts.max(initial=0)))  # the largest chunk
    bits, ks = np.empty(size, dtype=np.uint64), np.empty(size)
    start = 0
    while start < t:
        end = start + 1
        total = int(counts[start])
        while end < t and total + counts[end] <= _PAIR_BLOCK:
            total += int(counts[end])
            end += 1
        los, his = lo[start:end].tolist(), hi[start:end].tolist()
        coins = run_bits(keys, qkeys[start:end], los, his, bits)
        np.right_shift(coins, 11, out=coins)  # k, each coin's top 53 bits
        k = ks[:coins.size]
        k[:] = coins  # exact: k < 2^53
        pos = 0
        for q, a, b in zip(range(start, end), los, his):
            run = k[pos:pos + b - a]
            for arm, row in enumerate(scaled):
                votes[arm, q] = np.count_nonzero(run < row[a:b])
            pos += b - a
        start = end
    return counts, votes


def predict_batch(
    network: NetworkState,
    queries: np.ndarray,
    coin_seed: int = 0,
    default_label: int = 0,
) -> PredictionBatch:
    """Fused network output for each row of ``queries``.

    ``coin_seed`` addresses all fresh response randomness; identical
    (network, queries, coin_seed) triples give identical output no matter
    how the work is chunked or parallelized. A nonempty tuple of regression
    arms (an empty one is a ``ValueError("network: ...")``) gives
    ``values`` and ``responders`` a leading arm axis. ``queries``
    must have the network's dimension as its columns (a 1-d array is one
    query), else ``ValueError("queries: ...")``.
    """
    if network == ():
        raise ValueError("network: expected a network or a nonempty tuple of arms")
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    d = (network[0] if isinstance(network, tuple) else network).dimension
    if queries.ndim != 2 or queries.shape[1] != d:
        raise ValueError(f"queries: expected a (k, {d}) array, got shape {queries.shape}")
    if isinstance(network, tuple):  # regression arms share one engine
        return batch_regression(network, queries, coin_seed, default_label)
    protocol_spec(network.protocol)  # an unknown protocol is a ValueError
    return _ENGINES[network.protocol](network, queries, coin_seed, default_label)


def load_engine(protocol: str, d: int, coin_mode: str) -> None:
    """Import the scipy module that ``protocol``'s engine calls in ``d``
    dimensions with ``coin_mode``: ``scipy.special`` for the guesser
    crowd's ``binom`` (``reg_noabstain``, and ``cls_noabstain`` with
    per-query coins), in any dimension. Building an ``ExperimentConfig``
    calls it, so the import lands in set-up, not in a timed task, and
    forked pool workers inherit the module. The other engines need none:
    every ball count is numpy's, above one dimension too."""
    spec = protocol_spec(protocol)
    if not spec.abstains and (spec.task == "regression" or coin_mode == "per_query"):
        import scipy.special


# The batch engines, one per protocol, all called as (network, queries,
# coin_seed, default_label); ``_ENGINES`` keys them by protocol.


def _responder_majority(network, points, labels, queries, default_label):
    """Majority of the labels stored at ``points`` within r_n of each query
    (ties to 1); a query with no responders gets the default label."""
    counts, (votes,) = flag_counts(points, network.r_n, queries, [labels])
    preds = np.where(counts > 0, (2 * votes >= counts).astype(np.int64), default_label)
    return PredictionBatch(preds, counts, network.n)


def batch_cls_abstain(network, queries, coin_seed, default_label):
    return _responder_majority(network, network.xs, network.ys, queries, default_label)


def batch_specialists(network, queries, coin_seed, default_label):
    if network.trained:
        return _responder_majority(network, network.centers, network.ys, queries, default_label)
    none = np.zeros(len(queries), dtype=np.int64)  # no counts: a NaN radius admits every point
    return PredictionBatch(none + default_label, none, network.n)


def _guesser_votes(coin, n, counts):
    """Vote-1 count of the n - m fair guessers outside each query's ball of
    m sensors: the Binomial(n - m, 1/2) quantile at the uniform of the
    address (n, q), one past the last sensor."""
    u = coin.uniform_array(np.uint64(n), np.arange(len(counts), dtype=np.uint64))
    return binom.ppf(np.clip(u, _TINY, None), n - counts)


def batch_cls_noabstain(network, queries, coin_seed, default_label):
    # in-ball sensors vote their label; the rest vote their fixed coin, or
    # with per-query coins guess as one crowd
    n, xs, r = network.n, network.xs, network.r_n
    coins = network.fixed_coins
    if coins is None:
        counts, (votes_in,) = flag_counts(xs, r, queries, [network.ys])
        votes_out = _guesser_votes(CoinSource(coin_seed), n, counts)
    else:
        counts, (votes_in, coins_in) = flag_counts(xs, r, queries, [network.ys, coins])
        votes_out = int(np.count_nonzero(coins)) - coins_in
    preds = (2 * (votes_in + votes_out) > n).astype(np.int64)
    return PredictionBatch(preds, np.full(len(queries), n), n)


def _reg_abstain_rule(network, row):
    c = network.c_n  # biases ys / 2c + 1/2 inside the clamp, 1/2 outside
    outside = row > c  # |y| > c for finite y, without an n-sized |row|
    outside |= row < -c
    row /= 2.0 * c
    row += 0.5
    row[outside] = 0.5

    def fuse(counts, votes, coin):
        with np.errstate(invalid="ignore", divide="ignore"):
            est = 2.0 * c * (votes / counts - 0.5)
        return np.where(counts > 0, est, 0.0), counts
    return fuse


def _reg_noabstain_rule(network, row):
    c, n = network.c_n, network.n
    row /= 2.0 * c
    row += 0.5
    np.clip(row, 0.0, 1.0, out=row)

    def fuse(counts, votes_in, coin):
        t = len(counts)
        if n == 0:
            return np.zeros(t), counts
        votes_out = _guesser_votes(coin, n, counts)
        return 2.0 * c * ((votes_in + votes_out) / n - 0.5), np.full(t, n)
    return fuse


# each rule writes its arm's bias row in place and returns the arm's fusion
_REGRESSION_RULES = {"reg_abstain": _reg_abstain_rule, "reg_noabstain": _reg_noabstain_rule}


def batch_regression(network, queries, coin_seed, default_label):
    """Both regression rules, for one network or a tuple of arms that share
    one training set and radius (the result then has a leading arm axis).
    The networks must be one-dimensional."""
    arms = network if isinstance(network, tuple) else (network,)
    first = arms[0]
    if first.dimension != 1:
        raise ValueError(
            f"network: the regression engines run in one dimension, got d = {first.dimension}"
        )
    rules = [_REGRESSION_RULES.get(a.protocol) for a in arms]
    if None in rules or any(a.xs is not first.xs or a.r_n != first.r_n for a in arms[1:]):
        raise ValueError("network: arms must be regression networks sharing xs and r_n")
    coin = CoinSource(coin_seed)
    # three n-sized tables at a time: the runs are found first, so the
    # padded sorted coordinates are gone before the bias rows are made, and
    # the sort order (int64 positions, read as uint64 sensors) becomes the keys
    order, lo, hi = _runs(first.xs[:, 0], first.r_n, queries)
    biases = np.empty((len(arms), first.n))
    # each row in storage order, unbuffered as every index is in range
    fuses = [rule(a, np.take(a.ys, order, out=row, mode="clip"))
             for rule, a, row in zip(rules, arms, biases)]
    biases *= 2.0**53  # exact: the kernel compares integer coin bits
    keys = coin.sensor_keys_in_place(order.view(np.uint64))
    counts, votes = _in_ball_votes(keys, lo, hi, biases)
    fused = [fuse(counts, v, coin) for fuse, v in zip(fuses, votes)]
    values, responders = (np.array(x) for x in zip(*fused))
    if not isinstance(network, tuple):
        values, responders = values[0], responders[0]
    return PredictionBatch(values, responders, first.n)


_ENGINES = {
    "cls_abstain": batch_cls_abstain,
    "cls_noabstain": batch_cls_noabstain,
    "reg_abstain": batch_regression,
    "reg_noabstain": batch_regression,
    "specialists": batch_specialists,
}
