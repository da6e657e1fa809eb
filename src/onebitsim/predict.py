"""Vectorized query evaluation for trained networks.

These engines answer whole batches of queries with numpy/scipy kernels but
reproduce the per-sensor protocol semantics exactly: the response coin for
sensor i on query q is always the addressable uniform at (i, q), so batch
results match a sensor-by-sensor evaluation bit for bit wherever one is
feasible. The one deliberate exception is the crowd of fair-coin guessers
in ``reg_noabstain``: their vote total is drawn as one Binomial(m, 1/2)
variate per query (inverse-CDF from an addressed uniform), which has
exactly the right distribution and keeps million-sensor demos tractable.

Ball search is a sorted-array bisection in one dimension and a KD-tree
above it; work is chunked so peak memory stays bounded regardless of how
many (sensor, query) pairs a batch touches. Pairs are enumerated in the
lookup's storage order: sorted by coordinate in one dimension, so a
query's in-ball sensors are one contiguous run, and original order above
it. Engines permute their per-sensor tables (coin keys, biases, labels)
into that order once per call.

The rules without coins (``cls_abstain``, ``specialists``, fixed-coin
``cls_noabstain``) need only counts of in-ball 0/1 flags, so they
enumerate no pairs. In one dimension they take integer prefix sums over
the sorted layout; above it, the points are split by flag pattern into
one KD-tree per class, and each tree answers one length query
(``query_ball_point(..., return_length=True)``) for the whole batch.

Coins are hashed with the key/counter split of ``seeding``: one sensor key
per sensor and one query key per query per call, then one mix per pair,
bit for bit the scalar ``CoinSource.uniform`` at the pair's address.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

import numpy as np
from scipy.spatial import cKDTree
from scipy.stats import binom

from .seeding import CoinSource, pair_bits, query_keys, to_unit

if TYPE_CHECKING:  # pragma: no cover
    from .harness import NetworkState

_PAIR_BUDGET = 4_000_000
_COIN_BLOCK = 1 << 15
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class PredictionBatch:
    """Fused predictions for a batch of queries plus abstention telemetry."""

    values: np.ndarray      # label (classification) or estimate (regression)
    responders: np.ndarray  # non-abstaining sensors per query
    n_sensors: int

    @property
    def n_queries(self) -> int:
        return self.values.shape[0]

    @property
    def abstain_rate(self) -> float:
        """Abstaining (sensor, query) responses over all responses."""
        total = self.n_sensors * self.n_queries
        if total == 0:
            return 0.0
        return 1.0 - float(self.responders.sum()) / total

    @property
    def all_abstain_frac(self) -> float:
        """Fraction of queries on which every sensor abstained."""
        if self.n_queries == 0:
            return 0.0
        return float(np.mean(self.responders == 0))


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
        """KD-tree over all points (d >= 2), built on first use; None
        when there are no points."""
        return cKDTree(self.points) if len(self.points) else None

    def stored(self, table: np.ndarray) -> np.ndarray:
        """A per-point table permuted into storage order."""
        return table if self.order is None else table[self.order]

    def stored_ids(self) -> np.ndarray:
        """Original point index at each storage position."""
        return np.arange(len(self.points)) if self.order is None else self.order

    def counts_and_bounds(self, queries: np.ndarray):
        if self.d == 1:
            q = queries[:, 0]
            lo = np.searchsorted(self.sorted_x, q - self.radius, side="left")
            hi = np.searchsorted(self.sorted_x, q + self.radius, side="right")
            return hi - lo, (lo, hi)
        if self.tree is None:
            return np.zeros(len(queries), dtype=np.int64), None
        counts = self.tree.query_ball_point(queries, self.radius, return_length=True)
        return counts.astype(np.int64), None

    def flag_counts(self, queries: np.ndarray, flags: list[np.ndarray]):
        """Per-query count of in-ball points and, for each 0/1 vector in
        ``flags``, of in-ball points whose flag is set (all int64)."""
        flags = [np.asarray(f) != 0 for f in flags]
        if self.d == 1:
            counts, (lo, hi) = self.counts_and_bounds(queries)
            sums = []
            for f in flags:
                pref = np.zeros(len(f) + 1, dtype=np.int64)
                np.cumsum(self.stored(f), out=pref[1:])
                sums.append(pref[hi] - pref[lo])
            return counts, sums
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
        self, queries: np.ndarray, counts: np.ndarray, bounds=None, budget=None
    ) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """Yield (query slice, storage positions, per-query counts),
        chunked so each chunk holds at most ~``budget`` pairs (default
        ``_PAIR_BUDGET``; a single query may exceed it)."""
        budget = _PAIR_BUDGET if budget is None else budget
        t = len(queries)
        start = 0
        while start < t:
            end = start + 1
            total = int(counts[start])
            while end < t and total + counts[end] <= budget:
                total += int(counts[end])
                end += 1
            sl = slice(start, end)
            chunk_counts = counts[sl]
            if self.d == 1:
                lo, _ = bounds
                offsets = lo[sl] - (np.cumsum(chunk_counts) - chunk_counts)
                idx = np.repeat(offsets, chunk_counts)
                idx += np.arange(len(idx))
            elif self.tree is None:
                idx = np.empty(0, dtype=np.int64)
            else:
                lists = self.tree.query_ball_point(queries[sl], self.radius)
                idx = (
                    np.concatenate([np.asarray(v, dtype=np.int64) for v in lists])
                    if any(len(v) for v in lists)
                    else np.empty(0, dtype=np.int64)
                )
            yield sl, idx, np.asarray(chunk_counts, dtype=np.int64)
            start = end


def _segment_counts(flags: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """True flags in each consecutive run of ``counts`` entries."""
    out = np.zeros(len(counts), dtype=np.int64)
    nonempty = counts > 0
    if nonempty.any():
        starts = (np.cumsum(counts) - counts)[nonempty]
        out[nonempty] = np.add.reduceat(flags, starts, dtype=np.int64)
    return out


def _in_ball_votes(lookup, coin, biases, queries, counts, bounds) -> np.ndarray:
    """Per-query count of in-ball sensors whose coin at (sensor, query)
    falls below the sensor's bias."""
    keys = coin.sensor_keys(lookup.stored_ids())
    thresholds = lookup.stored(biases)
    qkeys = query_keys(np.arange(len(queries)))
    votes = np.zeros(len(queries), dtype=np.int64)
    # chunks of ~_COIN_BLOCK pairs keep every per-pair array in cache
    budget = min(_PAIR_BUDGET, _COIN_BLOCK)
    for sl, pos, chunk_counts in lookup.iter_pairs(queries, counts, bounds, budget):
        bits = pair_bits(keys[pos], np.repeat(qkeys[sl], chunk_counts))
        votes[sl] = _segment_counts(to_unit(bits) < thresholds[pos], chunk_counts)
    return votes


def predict_batch(
    network: "NetworkState",
    queries: np.ndarray,
    coin_seed: int = 0,
    default_label: int = 0,
) -> PredictionBatch:
    """Fused network output for each row of ``queries``.

    ``coin_seed`` addresses all fresh response randomness; identical
    (network, queries, coin_seed) triples give identical output no matter
    how the work is chunked or parallelized.
    """
    from .protocols import protocol_spec  # the table names this module's engines

    queries = np.atleast_2d(np.asarray(queries, dtype=float))
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


def batch_cls_noabstain(network, queries, coin_seed, default_label):
    if network.coin_mode == "per_query":
        return _cls_noabstain_fresh(network, queries, coin_seed)
    # fixed coins: out-of-ball votes are the coins outside the ball
    lookup = _BallLookup(network.xs, network.r_n)
    coins = network.fixed_coins
    counts, (votes_in, coins_in) = lookup.flag_counts(queries, [network.ys, coins])
    total = votes_in + int(np.count_nonzero(coins)) - coins_in
    preds = (2 * total > network.n).astype(np.int64)
    return PredictionBatch(preds, np.full(len(queries), network.n), network.n)


def _cls_noabstain_fresh(network, queries, coin_seed):
    # Every sensor answers every query, so evaluate the full sensor-by-query
    # grid in bounded slabs; out-of-ball sensors guess with the uniform at
    # their (sensor, query) address.
    n = network.n
    t = len(queries)
    lookup = _BallLookup(network.xs, network.r_n)
    counts, bounds = lookup.counts_and_bounds(queries)
    keys = CoinSource(coin_seed).sensor_keys(lookup.stored_ids())[None, :]
    ys = lookup.stored(network.ys.astype(float))[None, :]
    preds = np.empty(t, dtype=np.int64)
    slab = max(1, _PAIR_BUDGET // max(n, 1))
    for start in range(0, t, slab):
        sl = slice(start, min(t, start + slab))
        inside = np.zeros((sl.stop - start, n), dtype=bool)
        slab_bounds = None if bounds is None else (bounds[0][sl], bounds[1][sl])
        for qsl, pos, chunk_counts in lookup.iter_pairs(
            queries[sl], counts[sl], slab_bounds
        ):
            rows = np.repeat(np.arange(qsl.start, qsl.stop), chunk_counts)
            inside[rows, pos] = True
        bits = pair_bits(keys, query_keys(np.arange(sl.start, sl.stop))[:, None])
        votes = np.where(inside, ys, to_unit(bits) < 0.5)
        preds[sl] = (2.0 * votes.sum(axis=1) > n).astype(np.int64)
    return PredictionBatch(preds, np.full(t, n), n)


def batch_reg_abstain(network, queries, coin_seed, default_label):
    c = network.c_n
    ys = network.ys
    biases = np.where(np.abs(ys) <= c, ys / (2.0 * c) + 0.5, 0.5)
    lookup = _BallLookup(network.xs, network.r_n)
    counts, bounds = lookup.counts_and_bounds(queries)
    v = _in_ball_votes(lookup, CoinSource(coin_seed), biases, queries, counts, bounds)
    with np.errstate(invalid="ignore", divide="ignore"):
        est = 2.0 * c * (v / counts - 0.5)
    estimates = np.where(counts > 0, est, 0.0)
    return PredictionBatch(estimates, counts, network.n)


def batch_reg_noabstain(network, queries, coin_seed, default_label):
    coin = CoinSource(coin_seed)
    c = network.family_c
    n = network.n
    t = len(queries)
    biases = np.clip(network.ys / (2.0 * c) + 0.5, 0.0, 1.0)
    lookup = _BallLookup(network.xs, network.r_n)
    counts, bounds = lookup.counts_and_bounds(queries)
    votes_in = _in_ball_votes(lookup, coin, biases, queries, counts, bounds)
    # fair-coin guessers, aggregated: one Binomial(n - m, 1/2) draw per query
    # via inverse CDF on the uniform addressed by (sentinel n, query)
    m_out = (n - counts).astype(np.int64)
    u_out = coin.uniform_array(np.uint64(n), np.arange(t, dtype=np.uint64))
    votes_out = binom.ppf(np.clip(u_out, _TINY, None), m_out, 0.5)
    if n == 0:
        return PredictionBatch(np.zeros(t), counts, 0)
    estimates = 2.0 * c * ((votes_in + votes_out) / n - 0.5)
    return PredictionBatch(estimates, np.full(t, n), n)
