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

Ball search is a sorted-array bisection in one dimension and a KD-tree
above it. The regression engine sees in-ball (sensor, query) pairs only
through ``_BallLookup.iter_pairs``, in chunks of about ``_PAIR_BLOCK``
pairs, so peak memory stays bounded regardless of how many pairs a batch
touches. Pairs are enumerated in the lookup's storage order: sorted by
coordinate in one dimension, so a query's in-ball sensors are one
contiguous run, and original order above it. The engine builds its
per-sensor tables (coin keys, biases) in that order once per call, and
reads a chunk's pairs from a table's last axis through the chunk's
``gather``. In one dimension that concatenates the chunk's runs as slices
of the table, so no per-pair position array is built; above it, it
indexes the table with the KD-tree's neighbor lists. It answers arms that
share a training set at once: each in-ball coin, hashed once, meets one
bias row per arm of an ``(arms, n)`` table.

The classification rules (``cls_abstain``, ``specialists`` and
``cls_noabstain``, whose fixed coins or guesser crowd answer outside the
ball) need only counts of in-ball 0/1 flags, so they enumerate no pairs.
In one dimension they take integer prefix sums over the sorted layout;
above it, the points are split by flag pattern into one KD-tree per
class, and each tree answers one length query
(``query_ball_point(..., return_length=True)``) for the whole batch.

Coins are hashed with the key/counter split of ``seeding``: one sensor key
per sensor and one query key per query per call, then one mix per pair,
bit for bit the scalar ``CoinSource.uniform`` at the pair's address.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import betainc, ndtri

from .seeding import CoinSource, pair_bits, query_keys, to_unit

if TYPE_CHECKING:  # pragma: no cover
    from .harness import NetworkState

_PAIR_BLOCK = 1 << 15  # pairs per chunk: every per-pair array stays in cache
_TINY = np.finfo(float).tiny


class _FairBinomial:
    """Quantiles of X ~ Binomial(m, 1/2), exact at every m."""

    def ppf(self, u, m):
        """The smallest k with P(X <= k) >= u, as a float array. From the
        normal approximation's guess, k steps on ``betainc``: the CDF below
        u = 1/2, and above it the survival function against 1 - u, exact there."""
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


class _BallLookup:
    """Closed-ball neighbor counting/enumeration over a fixed point set.

    Points are addressed by their position in storage order: sorted by
    coordinate in one dimension (``order`` maps position to original
    index), original order above it (``order`` is None).
    """

    def __init__(self, points: np.ndarray, radius: float):
        self.points = points
        self.radius = radius
        self.d = points.shape[1] if points.ndim == 2 else 1
        self.order = None
        if self.d == 1:
            flat = points[:, 0]
            self.order = np.argsort(flat)
            self.sorted_x = flat[self.order]

    @cached_property
    def tree(self):
        """KD-tree over all points (d >= 2), built on first use."""
        return cKDTree(self.points)

    def stored(self, table: np.ndarray, out=None) -> np.ndarray:
        """A per-point table permuted into storage order, written to ``out``
        (unbuffered, as every index is in range) or to a new array."""
        return np.take(table, self.stored_ids(), out=out, mode="clip")

    def stored_ids(self) -> np.ndarray:
        """Original point index at each storage position."""
        return np.arange(len(self.points)) if self.order is None else self.order

    def _bounds(self, queries: np.ndarray):
        """1-d: each query's in-ball run [lo, hi) in storage order."""
        q = queries[:, 0]
        lo = np.searchsorted(self.sorted_x, q - self.radius, side="left")
        hi = np.searchsorted(self.sorted_x, q + self.radius, side="right")
        return lo, hi

    def flag_counts(self, queries: np.ndarray, flags: list[np.ndarray]):
        """Per-query count of in-ball points and, for each 0/1 vector in
        ``flags``, of in-ball points whose flag is set (all int64)."""
        flags = [np.asarray(f) != 0 for f in flags]
        if self.d == 1:
            lo, hi = self._bounds(queries)
            sums = []
            for f in flags:
                pref = np.zeros(len(f) + 1, dtype=np.int64)
                np.cumsum(self.stored(f), out=pref[1:])
                sums.append(pref[hi] - pref[lo])
            return hi - lo, sums
        # one tree per flag pattern: every point is in exactly one class, so
        # a query's count is the sum over classes and a flag's count the sum
        # over the classes that set it
        pattern = np.zeros(len(self.points), dtype=np.int64)
        for bit, f in enumerate(flags):
            pattern |= f.astype(np.int64) << bit
        counts = np.zeros(len(queries), dtype=np.int64)
        sums = [np.zeros(len(queries), dtype=np.int64) for _ in flags]
        for cls in np.unique(pattern):
            tree = cKDTree(self.points[pattern == cls])
            got = tree.query_ball_point(queries, self.radius, return_length=True)
            got = np.asarray(got, dtype=np.int64)
            counts += got
            for bit, out in enumerate(sums):
                if cls >> bit & 1:
                    out += got
        return counts, sums

    def iter_pairs(
        self, queries: np.ndarray
    ) -> Iterator[tuple[slice, Callable[[np.ndarray], np.ndarray], np.ndarray]]:
        """Yield (query slice, gather, per-query counts) over every in-ball
        (point, query) pair, chunked so each chunk holds at most
        ~``_PAIR_BLOCK`` pairs (a single query may exceed it).
        ``gather(table)`` returns a storage-order table's entries at the
        chunk's pairs along its last axis, a query's pairs together."""
        if self.d == 1:
            lo, hi = self._bounds(queries)
            counts = hi - lo
        else:
            counts = self.tree.query_ball_point(
                queries, self.radius, return_length=True
            ).astype(np.int64)
        t = len(queries)
        start = 0
        while start < t:
            end = start + 1
            total = int(counts[start])
            while end < t and total + counts[end] <= _PAIR_BLOCK:
                total += int(counts[end])
                end += 1
            sl = slice(start, end)
            if self.d == 1:
                # a query's in-ball points are one run of the sorted storage
                runs = [slice(a, b) for a, b in zip(lo[sl].tolist(), hi[sl].tolist())]
                gather = lambda table, runs=runs: np.concatenate([table[..., r] for r in runs], -1)
            else:
                lists = self.tree.query_ball_point(queries[sl], self.radius)
                idx = np.concatenate([np.asarray(v, dtype=np.int64) for v in lists])
                gather = lambda table, idx=idx: table[..., idx]
            yield sl, gather, counts[sl]
            start = end


def _segment_counts(flags: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """True flags in each consecutive run of ``counts`` entries (last axis)."""
    out = np.zeros(flags.shape[:-1] + counts.shape, dtype=np.int64)
    nonempty = counts > 0
    if nonempty.any():
        starts = (np.cumsum(counts) - counts)[nonempty]
        out[..., nonempty] = np.add.reduceat(flags, starts, axis=-1, dtype=np.int64)
    return out


def _in_ball_votes(lookup, coin, biases, queries):
    """Per-query counts of in-ball sensors and, for each row of the (arms,
    n) storage-order table ``biases``, of those whose coin at (sensor,
    query), hashed once for all rows, falls below the row's bias."""
    keys = coin.sensor_keys(lookup.stored_ids())
    qkeys = query_keys(np.arange(len(queries)))
    counts = np.zeros(len(queries), dtype=np.int64)
    votes = np.zeros((len(biases), len(queries)), dtype=np.int64)
    for sl, gather, chunk_counts in lookup.iter_pairs(queries):
        bits = pair_bits(gather(keys), np.repeat(qkeys[sl], chunk_counts))
        votes[:, sl] = _segment_counts(to_unit(bits) < gather(biases), chunk_counts)
        counts[sl] = chunk_counts
    return counts, votes


def predict_batch(
    network: "NetworkState",
    queries: np.ndarray,
    coin_seed: int = 0,
    default_label: int = 0,
) -> PredictionBatch:
    """Fused network output for each row of ``queries``.

    ``coin_seed`` addresses all fresh response randomness; identical
    (network, queries, coin_seed) triples give identical output no matter
    how the work is chunked or parallelized. A tuple of regression arms
    gives ``values`` and ``responders`` a leading arm axis.
    """
    from .protocols import protocol_spec  # the table names this module's engines

    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if isinstance(network, tuple):  # regression arms share one engine
        return batch_regression(network, queries, coin_seed, default_label)
    engine = protocol_spec(network.protocol).engine
    return engine(network, queries, coin_seed, default_label)


# The batch engines, one per protocol, all called as (network, queries,
# coin_seed, default_label); the protocol table in ``protocols`` names them.


def _responder_majority(network, points, labels, queries, default_label):
    """Majority of the labels stored at ``points`` within r_n of each query
    (ties to 1); a query with no responders gets the default label."""
    lookup = _BallLookup(points, network.r_n)
    counts, (votes,) = lookup.flag_counts(queries, [labels])
    preds = np.where(counts > 0, (2 * votes >= counts).astype(np.int64), default_label)
    return PredictionBatch(preds, counts, network.n)


def batch_cls_abstain(network, queries, coin_seed, default_label):
    return _responder_majority(network, network.xs, network.ys, queries, default_label)


def batch_specialists(network, queries, coin_seed, default_label):
    trained = ~network.untrainable
    return _responder_majority(
        network, network.centers[trained], network.ys[trained], queries, default_label
    )


def _guesser_votes(coin, n, counts):
    """Vote-1 count of the n - m fair guessers outside each query's ball of
    m sensors: the Binomial(n - m, 1/2) quantile at the uniform of the
    address (n, q), one past the last sensor."""
    u = coin.uniform_array(np.uint64(n), np.arange(len(counts), dtype=np.uint64))
    return binom.ppf(np.clip(u, _TINY, None), n - counts)


def batch_cls_noabstain(network, queries, coin_seed, default_label):
    # in-ball sensors vote their label; the rest vote their fixed coin, or
    # with per-query coins guess as one crowd
    n = network.n
    lookup = _BallLookup(network.xs, network.r_n)
    coins = network.fixed_coins
    if coins is None:
        counts, (votes_in,) = lookup.flag_counts(queries, [network.ys])
        votes_out = _guesser_votes(CoinSource(coin_seed), n, counts)
    else:
        counts, (votes_in, coins_in) = lookup.flag_counts(queries, [network.ys, coins])
        votes_out = int(np.count_nonzero(coins)) - coins_in
    preds = (2 * (votes_in + votes_out) > n).astype(np.int64)
    return PredictionBatch(preds, np.full(len(queries), n), n)


def _reg_abstain_rule(network, row):
    c = network.c_n  # biases ys / 2c + 1/2 inside the clamp, 1/2 outside
    inside = np.abs(row) <= c
    row /= 2.0 * c
    row += 0.5
    row[~inside] = 0.5

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
    one training set and radius (the result then has a leading arm axis)."""
    arms = network if isinstance(network, tuple) else (network,)
    first = arms[0]
    rules = [_REGRESSION_RULES.get(a.protocol) for a in arms]
    if None in rules or any(a.xs is not first.xs or a.r_n != first.r_n for a in arms[1:]):
        raise ValueError("network: arms must be regression networks sharing xs and r_n")
    coin = CoinSource(coin_seed)
    lookup = _BallLookup(first.xs, first.r_n)
    biases = np.empty((len(arms), first.n))
    fuses = [rule(a, lookup.stored(a.ys, out=row)) for rule, a, row in zip(rules, arms, biases)]
    counts, votes = _in_ball_votes(lookup, coin, biases, queries)
    fused = [fuse(counts, v, coin) for fuse, v in zip(fuses, votes)]
    values, responders = (np.array(x) for x in zip(*fused))
    if not isinstance(network, tuple):
        values, responders = values[0], responders[0]
    return PredictionBatch(values, responders, first.n)
