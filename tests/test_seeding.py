"""Determinism and quality of the addressable coin streams."""

import numpy as np
import pytest

from onebitsim.seeding import (
    _MASK,
    CoinSource,
    _mix,
    derive_seed,
    derived_rng,
    query_keys,
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
    # one 0-d sensor against a row of queries: the guesser crowd's lookup
    n = 2**40 + 3
    row = cs.uniform_array(np.uint64(n), np.arange(5))
    assert row.tolist() == [cs.uniform(n, q) for q in range(5)]


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


@pytest.mark.xfail(strict=True, reason=(
    "the path fold starts from mix(seed) and absorbs a part as mix(state ^ "
    "mix(part)), so a first part equal to the seed cancels it"))
@pytest.mark.parametrize("s", [5, 100])
def test_a_first_part_equal_to_the_seed_does_not_cancel_it(s):
    assert derive_seed(s, s, 1, 2) != derive_seed(0, 1, 2)


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
        u = cs.uniform_array(sensors, queries)
        for s, q, value in zip(sensors, queries, u):
            assert value == cs.uniform(int(s), int(q))


# (seed, path) -> derive_seed(seed, *path), recorded from the numpy-scalar
# fold this integer one replaced: negative, 2**63 and 10**30 parts and
# seeds, all taken modulo 2**64
GOLDEN_SEEDS = [
    (0, (), 16294208416658607535),
    (0, (2**63,), 6600752032320735575),
    (0, (0, 2**63, -3, 10**30), 978863007691104071),
    (-1, (0,), 4007111439069458218),
    (-1, (-3,), 12989683958067131073),
    (-1, (7, 3, 1), 1008356533106776615),
    (2**64 + 5, (), 7134611160154358618),
    (2**64 + 5, (10**30,), 15377848545899066164),
    (2**64 + 5, (0, 2**63, -3, 10**30), 15919500379567710626),
]


def test_golden_seeds():
    for seed, path, expected in GOLDEN_SEEDS:
        assert derive_seed(seed, *path) == expected
        # a numpy integer folds as its value (it once overflowed in ``& _MASK``)
        assert derive_seed(np.int64(seed % 2**63), *path) == derive_seed(seed % 2**63, *path)
    assert [u.hex() for u in derived_rng(9, 4, 2).random(3)] == [
        "0x1.4c8f7aefe6e00p-3", "0x1.b4ba8872894c8p-1", "0x1.bcea7aaf8f596p-1",
    ]
    assert [u.hex() for u in derived_rng(-1, 10**30).random(3)] == [
        "0x1.578f84a453558p-3", "0x1.8ae3e935b5868p-1", "0x1.e31502c2fb723p-1",
    ]
    for seed, sensor, query, expected in [
        (0, 0, 0, "0x1.c4415072f63b9p-1"),
        (5, 2**40, 7, "0x1.73085fc731150p-5"),
        (-1, 3, 2**63, "0x1.7174eda4bd138p-3"),
        (2**64 + 5, 10**30, -3, "0x1.f6aff487142d4p-2"),
    ]:
        assert CoinSource(seed).uniform(sensor, query) == float.fromhex(expected)


def test_key_arrays_are_the_integer_mix():
    # the batch mixer against the scalar one, which shares no code with it
    ids = np.array([0, 1, 2**40, 2**63, 2**64 - 1, 12345], dtype=np.uint64)
    before = ids.copy()
    qkeys = query_keys(ids)
    np.testing.assert_array_equal(ids, before)  # mixed on a copy
    assert qkeys.dtype == np.uint64
    assert [int(k) for k in qkeys] == [_mix(int(i)) for i in ids]
    for seed in (0, -1, 2**63 + 7):
        skeys = CoinSource(seed).sensor_keys_in_place(np.array(ids, dtype=np.uint64))
        state = _mix(seed & _MASK)
        assert [int(k) for k in skeys] == [_mix(state ^ _mix(int(i))) for i in ids]
    np.testing.assert_array_equal(ids, before)
