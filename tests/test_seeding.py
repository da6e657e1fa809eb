"""Determinism and quality of the addressable coin streams."""

import numpy as np

from onebitsim.seeding import (
    CoinSource,
    derive_seed,
    derived_rng,
    pair_bits,
    query_keys,
    to_unit,
)


def test_same_address_same_value():
    cs = CoinSource(42)
    assert cs.uniform(3, 9) == cs.uniform(3, 9)
    assert cs.uniform(0, 0) == cs.uniform(0, 0)


def test_distinct_addresses_distinct_streams():
    cs = CoinSource(42)
    values = {
        cs.uniform(i, j) for i in range(20) for j in range(20)
    }
    assert len(values) == 400  # collisions at float resolution are ~impossible


def test_seed_changes_stream():
    assert CoinSource(1).uniform(5, 5) != CoinSource(2).uniform(5, 5)


def test_array_lookup_matches_scalar():
    cs = CoinSource(7)
    sensors = np.array([0, 1, 2, 2, 900, 2**40])
    queries = np.array([5, 5, 5, 6, 0, 3])
    arr = cs.uniform_array(sensors, queries)
    for k in range(len(sensors)):
        assert arr[k] == cs.uniform(int(sensors[k]), int(queries[k]))


def test_broadcasting():
    cs = CoinSource(7)
    grid = cs.uniform_array(np.arange(4)[None, :], np.arange(3)[:, None])
    assert grid.shape == (3, 4)
    assert grid[1, 2] == cs.uniform(2, 1)


def test_uniformity():
    cs = CoinSource(123)
    idx = np.arange(10**5)
    u = cs.uniform_array(idx % 317, idx // 317)
    assert np.all((u >= 0) & (u < 1))
    # mean of 1e5 uniforms: 3 sigma = 3 / (sqrt(12) * sqrt(1e5)) ~ 0.0027
    assert abs(u.mean() - 0.5) < 0.003
    # no coupling between the halves of consecutive addresses
    corr = np.corrcoef(u[:-1], u[1:])[0, 1]
    assert abs(corr) < 0.02


def test_derive_seed_paths():
    assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
    assert derive_seed(0, 1) != derive_seed(1, 1)


def test_derived_rng_reproducible():
    a = derived_rng(9, 4, 2).standard_normal(5)
    b = derived_rng(9, 4, 2).standard_normal(5)
    np.testing.assert_array_equal(a, b)


# (seed, sensor, query) -> CoinSource(seed).uniform(sensor, query).hex(),
# recorded from the scalar path: a 2**40 sensor id, the sentinel sensor n
# of a 300-sensor network, and seeds at and above 2**63
GOLDEN_UNIFORMS = [
    (7, 2**40, 3, "0x1.213af5f215480p-4"),
    (7, 300, 5, "0x1.6b4d4a38b9938p-1"),
    (2**63 + 12345, 4, 9, "0x1.90139ce119676p-2"),
    (2**64 - 1, 0, 2**33, "0x1.4293bbd5322c0p-3"),
]


def test_golden_uniforms():
    for seed, sensor, query, expected in GOLDEN_UNIFORMS:
        cs = CoinSource(seed)
        assert cs.uniform(sensor, query) == float.fromhex(expected)
        arr = cs.uniform_array(np.array([sensor]), np.array([query]))
        assert arr[0] == float.fromhex(expected)


def test_key_split_matches_scalar_on_random_addresses():
    rng = np.random.default_rng(2024)
    for seed in (0, 7, 2**63 - 1, 2**63, 2**64 - 1, int(rng.integers(2**63))):
        cs = CoinSource(seed)
        sensors = rng.integers(0, 2**63, size=200, dtype=np.uint64)
        sensors[:3] = (0, 2**40, 2**64 - 1)
        queries = rng.integers(0, 2**63, size=200, dtype=np.uint64)
        u = to_unit(pair_bits(cs.sensor_keys(sensors), query_keys(queries)))
        for s, q, value in zip(sensors, queries, u):
            assert value == cs.uniform(int(s), int(q))
