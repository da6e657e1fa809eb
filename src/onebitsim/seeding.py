"""Deterministic seed derivation and addressable coin streams.

Every random quantity in a simulation is reached by a pure integer path
from one master seed, so any sub-computation (a single sensor's coin on a
single query, one replication's training set) can be reproduced in
isolation and results never depend on evaluation order or worker count.

Two mechanisms:

* ``derive_seed`` folds an integer path into a 64-bit seed for a numpy
  ``Generator`` (bulk i.i.d. sampling).
* ``CoinSource`` is a counter-based stream: the uniform at address
  ``(sensor, query)`` is a hash of ``(seed, sensor, query)``, computable
  scalar-wise or for whole index arrays with identical results.

The coin hash ``_fold(seed, (s, q))`` is ``_mix(K[s] ^ Q[q])`` with a
per-sensor key ``K[s] = _mix(_mix(seed) ^ _mix(s))`` and a per-query key
``Q[q] = _mix(q)``: the key/counter split of counter-based generators
(Salmon et al., SC'11) over the splitmix64 finalizer (Steele et al.,
OOPSLA'14). Batch engines compute ``K`` once per sensor and ``Q`` once per
query and pay one ``_mix`` per pair (``pair_bits``), bit for bit equal to
the scalar ``uniform``, which folds the full path and stays the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1
_MIX_BLOCK = 1 << 15  # entries per in-place mixing step


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 arrays (wraparound intended)."""
    with np.errstate(over="ignore"):
        z = z + _GOLDEN
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        return z ^ (z >> _U64(31))


def _fold(seed: int, parts: tuple) -> np.ndarray:
    """Absorb integer path components (scalars or arrays) into a state."""
    state = _mix(np.asarray(seed & _MASK, dtype=np.uint64))
    for part in parts:
        if isinstance(part, np.ndarray):
            part = part.astype(np.uint64, copy=False)
        else:
            part = np.asarray(int(part) & _MASK, dtype=np.uint64)
        state = _mix(state ^ _mix(part))
    return state


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child seed from ``seed`` and an integer path.

    Distinct paths give (statistically) independent child seeds; the same
    path always gives the same child.
    """
    return int(_fold(seed, path))


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """numpy Generator seeded by ``derive_seed(seed, *path)``."""
    return np.random.default_rng(derive_seed(seed, *path))


def to_unit(bits: np.ndarray) -> np.ndarray:
    """The top 53 bits of each uint64 as a uniform in [0, 1)."""
    return (bits >> _U64(11)).astype(np.float64) * 2.0**-53


def query_keys(queries) -> np.ndarray:
    """Per-query keys ``Q[q] = _mix(q)``."""
    return _mix(np.asarray(queries, dtype=np.uint64))


def _mix_inplace(z: np.ndarray) -> np.ndarray:
    """``_mix`` run in place on a new contiguous uint64 array ``z``, a block
    of ``_MIX_BLOCK`` entries at a time, so the one scratch array stays
    cache-sized whatever the size of ``z``."""
    flat = z.ravel(order="K")  # a view: z is C- or F-contiguous
    scratch = np.empty(min(flat.size, _MIX_BLOCK), dtype=np.uint64)
    for start in range(0, flat.size, _MIX_BLOCK):
        b = flat[start:start + _MIX_BLOCK]
        tmp = scratch[:b.size]
        np.add(b, _GOLDEN, out=b)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(b, _U64(shift), out=tmp)
            np.bitwise_xor(b, tmp, out=b)
            np.multiply(b, mult, out=b)
        np.right_shift(b, _U64(31), out=tmp)
        np.bitwise_xor(b, tmp, out=b)
    return z


def pair_bits(skeys: np.ndarray, qkeys: np.ndarray) -> np.ndarray:
    """Coin bits ``_mix(K ^ Q)`` of broadcast sensor and query key arrays;
    ``to_unit`` of them is the uniform at each (sensor, query) address.

    Runs ``_mix``'s steps in place, so a pair costs its output and no
    more. ``_mix`` itself stays the plain expression the scalar
    ``CoinSource.uniform`` uses, which keeps the reference independent of
    this copy.
    """
    return _mix_inplace(np.asarray(np.bitwise_xor(skeys, qkeys)))


@dataclass(frozen=True)
class CoinSource:
    """Seeded stream of uniform [0,1) values addressed by (sensor, query).

    The value at an address is a pure function of ``(seed, sensor, query)``:
    the same address always yields the same value, distinct addresses yield
    independent values, and array lookups agree bit-for-bit with scalar ones.
    """

    seed: int

    def uniform(self, sensor: int, query: int) -> float:
        return float(to_unit(_fold(self.seed, (sensor, query))))

    def sensor_keys(self, sensors) -> np.ndarray:
        """Per-sensor keys ``K[s] = _mix(_mix(seed) ^ _mix(s))``, mixed in
        place like ``pair_bits``: they cost the keys array and no more."""
        k = _mix_inplace(np.array(sensors, dtype=np.uint64))
        np.bitwise_xor(k, _mix(_U64(self.seed & _MASK)), out=k)
        return _mix_inplace(k)

    def uniform_array(self, sensors, queries) -> np.ndarray:
        """Vectorized lookup; ``sensors`` and ``queries`` broadcast together."""
        return to_unit(pair_bits(self.sensor_keys(sensors), query_keys(queries)))
