"""Property test: any INI text built from the config keys, with noise, either
builds an ``ExperimentConfig`` or fails with a ``ConfigError`` whose message
starts with a key of the input or a required key, as the README promises."""

import configparser

import pytest

from onebitsim import cli
from onebitsim.harness import ExperimentConfig
from onebitsim.protocols import COIN_MODES, PROTOCOLS
from onebitsim.scenarios import SCENARIO_IDS, scenario_parameters

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# on a failure, hypothesis's pytest plugin imports libcst to print a patch,
# and libcst's import warns through mypy_extensions; as an error, that
# warning would abort the whole session instead of reporting the failure
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)

_PARAMS = sorted({f"scenario.{name}" for sid in SCENARIO_IDS for name in scenario_parameters(sid)})
_KNOWN = list(cli._KEYS) + ["n", "n_grid"] + _PARAMS

_NUMBER = st.one_of(
    st.floats().map(repr),  # NaN, +-inf, subnormals and 1e308 included
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["1" + "0" * 400, str(2**53 + 1), "5e-324", "1e308", "-0.0"]),
)
# what a value may be whatever its key: numbers, lists, empty text and words
_NOISE = st.one_of(
    _NUMBER,
    st.lists(_NUMBER, min_size=2, max_size=3).map(", ".join),
    st.just(""),
    st.text(alphabet="abcxyz_-, ", max_size=6),
)


def _plausible(key):
    """Values that pass the CLI's text checks for ``key``, so that the
    library's own checks are reached."""
    if key == "protocol":
        return st.sampled_from(PROTOCOLS)
    if key == "scenario":
        return st.sampled_from(SCENARIO_IDS)
    if key == "coin_mode":
        return st.sampled_from(COIN_MODES)
    if key == "n":
        return st.integers(1, 10**4).map(str)
    if key == "n_grid":
        return st.lists(st.integers(1, 10**4), min_size=1, max_size=3, unique=True).map(
            lambda grid: ", ".join(map(str, sorted(grid)))
        )
    if key in ("replications", "test_points", "seed"):
        return st.integers(0, 50).map(str)
    if key.startswith("scenario."):  # a number, or a pair for the vector parameters
        pair = st.lists(st.floats(0, 1), min_size=2, max_size=2).map(lambda v: f"{v[0]}, {v[1]}")
        return st.floats(0, 2).map(repr) | pair
    return st.floats(0, 2).map(repr)  # r0, beta, c0, gamma


@st.composite
def _sections(draw):
    single_n = draw(st.booleans())
    keys = draw(st.lists(st.sampled_from(_KNOWN), max_size=6, unique=True))
    # most configs name the required keys and give each key a plausible
    # value, so that the checks behind them run; some add an unknown key
    usually = st.sampled_from([True] * 4 + [False])
    keys += [key for key in ("protocol", "scenario", "n" if single_n else "n_grid")
             if key not in keys and draw(usually)]
    if not draw(usually):
        keys.append(draw(st.from_regex(r"[a-z][a-z0-9_.]{0,10}", fullmatch=True)))
    values = {key: draw(_plausible(key) if draw(usually) else _NOISE) for key in keys}
    text = "[sweep]\n" + "".join(f"{key} = {value}\n" for key, value in values.items())
    parser = configparser.ConfigParser(interpolation=None)  # as cli.load_config_section
    parser.read_string(text)
    return dict(parser.items("sweep")), single_n


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_sections())
def test_a_generated_config_builds_or_names_its_key(case):
    section, single_n = case
    required = {"protocol", "scenario", "n" if single_n else "n_grid"}
    try:
        config = cli.build_experiment_config(section, single_n=single_n)
    except cli.ConfigError as exc:
        key = str(exc).split(":", 1)[0]
        assert key in section or key in required, str(exc)
    else:
        assert isinstance(config, ExperimentConfig)
