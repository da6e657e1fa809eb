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

The coin bits at ``(s, q)`` are ``derive_seed(seed, s, q)``, which equals
``_mix(K[s] ^ Q[q])`` with a per-sensor key ``K[s] = _mix(_mix(seed) ^
_mix(s))`` and a per-query key ``Q[q] = _mix(q)``: the key/counter split
of counter-based generators (Salmon et al., SC'11) over the splitmix64
finalizer (Steele et al., OOPSLA'14). It is plain 64-bit integer
arithmetic, so the scalar path (``_mix``, ``derive_seed``, ``uniform``)
runs it in Python integers masked to 64 bits, a few times cheaper per call
than numpy scalars. Batch engines compute ``K`` once per sensor and ``Q``
once per query and pay one mix per pair, run in place on uint64 arrays
(``_mix_inplace``, under ``uniform_array``, or ``run_bits`` for runs of
sensors against one query each), bit for bit equal to the scalar
``uniform``, which derives the full path and stays the reference: the two
share no code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # numpy loads it lazily: load it with the module, not in a task

_U64 = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_MIX_BLOCK = 1 << 15  # entries per in-place mixing step


def _mix(z: int) -> int:
    """splitmix64 finalizer of one integer in [0, 2^64), in Python ints
    masked to 64 bits (the wraparound of uint64 arithmetic)."""
    z = (z + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Derive a child seed from ``seed`` and an integer path.

    Distinct paths give (statistically) independent child seeds; the same
    path always gives the same child. Each part, the seed too, counts modulo 2^64.
    """
    state = _mix(int(seed) & _MASK)
    for part in path:
        state = _mix(state ^ _mix(int(part) & _MASK))
    return state


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """numpy Generator seeded by ``derive_seed(seed, *path)``."""
    return np.random.default_rng(derive_seed(seed, *path))


def query_keys(queries) -> np.ndarray:
    """Per-query keys ``Q[q] = _mix(q)``, mixed in place on a fresh copy,
    so the caller's array is left as it was."""
    return _mix_inplace(np.array(queries, dtype=np.uint64))


def _mix_inplace(z: np.ndarray) -> np.ndarray:
    """``_mix`` run in place on a contiguous uint64 array ``z``, a block
    of ``_MIX_BLOCK`` entries at a time, so the one scratch array stays
    cache-sized whatever the size of ``z``."""
    flat = z.ravel(order="K")  # a view: z is C- or F-contiguous
    scratch = np.empty(min(flat.size, _MIX_BLOCK), dtype=np.uint64)
    for start in range(0, flat.size, _MIX_BLOCK):
        b = flat[start:start + _MIX_BLOCK]
        tmp = scratch[:b.size]
        np.add(b, _U64(_GOLDEN), out=b)
        for shift, mult in ((30, _U64(_MIX1)), (27, _U64(_MIX2))):
            np.right_shift(b, _U64(shift), out=tmp)
            np.bitwise_xor(b, tmp, out=b)
            np.multiply(b, mult, out=b)
        np.right_shift(b, _U64(31), out=tmp)
        np.bitwise_xor(b, tmp, out=b)
    return z


def run_bits(keys: np.ndarray, qkeys, lo, hi, out: np.ndarray) -> np.ndarray:
    """Coin bits ``_mix(K ^ Q)`` of the runs ``keys[lo[j]:hi[j]]`` against
    ``qkeys[j]``, written run after run into the head of the uint64 buffer
    ``out``, which is returned: each query's key meets its run in place, so
    the chunk's pairs are hashed without building their concatenated keys."""
    pos = 0
    for q, a, b in zip(qkeys, lo, hi):
        np.bitwise_xor(keys[a:b], q, out=out[pos:pos + b - a])
        pos += b - a
    return _mix_inplace(out[:pos])


@dataclass(frozen=True)
class CoinSource:
    """Seeded stream of uniform [0,1) values addressed by (sensor, query).

    The value at an address is a pure function of ``(seed, sensor, query)``:
    the same address always yields the same value, distinct addresses yield
    independent values, and array lookups agree bit-for-bit with scalar ones.
    """

    seed: int

    def uniform(self, sensor: int, query: int) -> float:
        return (derive_seed(self.seed, sensor, query) >> 11) * 2.0**-53  # exact: < 2^53

    def sensor_keys_in_place(self, sensors: np.ndarray) -> np.ndarray:
        """Per-sensor keys ``K[s] = _mix(_mix(seed) ^ _mix(s))``, written
        over the contiguous uint64 array ``sensors``, which is returned: the
        keys cost no array of their own."""
        _mix_inplace(sensors)
        np.bitwise_xor(sensors, _U64(_mix(int(self.seed) & _MASK)), out=sensors)
        return _mix_inplace(sensors)

    def uniform_array(self, sensors, queries) -> np.ndarray:
        """Vectorized lookup; ``sensors`` and ``queries`` broadcast together."""
        keys = self.sensor_keys_in_place(np.array(sensors, dtype=np.uint64))
        bits = np.asarray(np.bitwise_xor(keys, query_keys(queries)))
        return (_mix_inplace(bits) >> _U64(11)).astype(np.float64) * 2.0**-53
