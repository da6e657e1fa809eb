"""The memory-slope guards in ``test_predict.py`` can fail: each one, on its
own inputs, crosses its bound once one extra 8-byte n-sized table is held
while the guarded layer runs."""

import numpy as np
import pytest

from onebitsim import predict as pd
from onebitsim.scenarios import UniformBoxScenario
from test_predict import (
    _1D_CLASSIFICATION,
    _2D_COUNTS_SLOPE,
    _GUESSER_SLOPE,
    _MEMORY_SLOPE,
    _SPECIALISTS,
    _SPECIALISTS_SLOPE,
    _1d_classification_memory_inputs,
    _guesser_crowd_slope,
    _peak_slope,
    _specialists_training_slope,
    _two_arm_memory_inputs,
)


def _plant(monkeypatch, owner, attr, size):
    """Replace ``owner.attr`` by a call that holds one float64 array of
    ``size(*args)`` entries while the original runs."""
    original = getattr(owner, attr)

    def planted(*args, **kwargs):
        table = np.ones(size(*args))
        result = original(*args, **kwargs)
        del table
        return result

    monkeypatch.setattr(owner, attr, planted)


def test_a_table_planted_in_the_pair_pass_fails_the_two_arm_guard(monkeypatch):
    arms, queries = _two_arm_memory_inputs()
    _plant(monkeypatch, pd, "_in_ball_votes", lambda keys, *_: len(keys))
    assert _peak_slope(arms, queries) > _MEMORY_SLOPE


@pytest.mark.parametrize("protocol,mode", _1D_CLASSIFICATION)
def test_a_table_planted_in_the_run_search_fails_the_1d_classification_guard(
    protocol, mode, monkeypatch
):
    networks, queries = _1d_classification_memory_inputs(protocol, mode)
    _plant(monkeypatch, pd, "_runs", lambda flat, *_: len(flat))
    assert _peak_slope(networks, queries) > _MEMORY_SLOPE


@pytest.mark.parametrize("protocol,mode", _1D_CLASSIFICATION)
def test_a_table_planted_in_the_strip_index_fails_the_2d_counts_guard(
    protocol, mode, monkeypatch
):
    networks, queries = _1d_classification_memory_inputs(protocol, mode, "gauss_mix_2d")
    _plant(monkeypatch, pd, "flag_counts", lambda points, *_: len(points))
    assert _peak_slope(networks, queries) > _2D_COUNTS_SLOPE


@pytest.mark.parametrize("scenario_id", _SPECIALISTS)
def test_a_table_planted_in_the_sampler_fails_the_specialists_guard(
    scenario_id, monkeypatch
):
    _plant(monkeypatch, UniformBoxScenario, "direct_conditional_x",
           lambda self, centers, *_: len(centers))
    assert _specialists_training_slope(scenario_id) > _SPECIALISTS_SLOPE


def test_a_table_planted_in_the_quantiles_fails_the_guesser_crowd_guard(monkeypatch):
    # pd.binom.ppf sees m = n - counts, and every count is below 50
    _plant(monkeypatch, type(pd.binom), "ppf", lambda self, u, m: int(m.max()))
    assert _guesser_crowd_slope() > _GUESSER_SLOPE
