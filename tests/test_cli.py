"""Config parsing, command behavior, and output file stability."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from onebitsim import cli
from onebitsim import predict
from onebitsim import protocols
from onebitsim.harness import (
    ExperimentConfig, default_impossibility_config, impossibility_demo, usable_cpus,
)
from onebitsim.seeding import CoinSource


SWEEP_INI = """\
[sweep]
protocol = cls_abstain
scenario = gauss_mix_1d
n_grid = 50, 150
r0 = 0.5
beta = 0.3
replications = 3
test_points = 150
seed = 9
"""

SIMULATE_INI = """\
[simulate]
protocol = reg_abstain
scenario = sine_1d
scenario.noise = 0.1
n = 300
beta = 0.3
gamma = 0.1
replications = 2
test_points = 100
"""


SWEEP_KEYS = {"protocol": "cls_abstain", "scenario": "gauss_mix_1d", "n_grid": "5, 10"}
SWEEP_FIELDS = {
    "protocol": "cls_abstain", "scenario_id": "gauss_mix_1d", "n_grid": (5, 10),
    "r0": 0.5, "beta": 0.3,
}

# Bad values that Schedule, ExperimentConfig and make_scenario reject
# themselves: (config keys, library fields, CLI message). The keys and
# fields override the sweep above; the message starts with the config key.
VALUE_CASES = [
    ({"protocol": "smoke"}, {"protocol": "smoke"}, "protocol: unknown"),
    ({"scenario": "sine_2d"}, {"scenario_id": "sine_2d"}, "scenario: unknown"),
    (
        {"scenario.sigma": "abc"}, {"scenario_params": {"sigma": "abc"}},
        "scenario.sigma: expected a finite number",
    ),
    (
        {"scenario.sigma": "-1"}, {"scenario_params": {"sigma": -1}},
        "scenario.sigma: must be positive",
    ),
    (
        {"scenario.bogus": "1"}, {"scenario_params": {"bogus": 1}},
        "scenario.bogus: unknown parameter",
    ),
    (
        {"scenario.sigma": "nan"}, {"scenario_params": {"sigma": math.nan}},
        "scenario.sigma: expected a finite number",
    ),
    (
        {"scenario.sigma": "1, 2"}, {"scenario_params": {"sigma": (1.0, 2.0)}},
        "scenario.sigma: expected one number",
    ),
    (
        {"scenario": "sine_1d"}, {"scenario_id": "sine_1d"},
        "scenario: sine_1d does not fit: cls_abstain needs a classification",
    ),
    (
        {"scenario": "checkerboard_2d", "scenario.k": "2.5"},
        {"scenario_id": "checkerboard_2d", "scenario_params": {"k": 2.5}},
        "scenario.k: must be an integer >= 1",
    ),
    (
        {"scenario": "cityscape_2d", "scenario.center": "0.5"},
        {"scenario_id": "cityscape_2d", "scenario_params": {"center": 0.5}},
        "scenario.center: expected 2 coordinates",
    ),
    (
        {"scenario": "checkerboard_2d", "scenario.k": "1e160"},
        {"scenario_id": "checkerboard_2d", "scenario_params": {"k": 1e160}},
        "scenario.k: must be at most 2**53",
    ),
    (
        {"protocol": "reg_abstain", "scenario": "sine_1d", "scenario.noise": "1e200"},
        {
            "protocol": "reg_abstain", "scenario_id": "sine_1d",
            "scenario_params": {"noise": 1e200},
        },
        "scenario.noise: must be at most 1e75",
    ),
    (  # sigma**2 overflows in eta
        {"scenario.sigma": "1e200"}, {"scenario_params": {"sigma": 1e200}},
        "scenario.sigma: must lie in [1e-75, 1e75]",
    ),
    (  # every eta divides by zero
        {"scenario.sigma": "1e-200"}, {"scenario_params": {"sigma": 1e-200}},
        "scenario.sigma: must lie in [1e-75, 1e75]",
    ),
    (
        {"scenario": "gauss_mix_2d", "scenario.sigma": "1e160"},
        {"scenario_id": "gauss_mix_2d", "scenario_params": {"sigma": 1e160}},
        "scenario.sigma: must lie in [1e-75, 1e75]",
    ),
    (  # the norm, eta's matmul and the 1-d ball search overflow
        {"scenario.mu": "1e160"}, {"scenario_params": {"mu": 1e160}},
        "scenario.mu: must be at most 1e75 in absolute value",
    ),
    (  # in_ball's squared distance overflows
        {"protocol": "specialists", "scenario": "cityscape_2d",
         "scenario.center": "1e200, 0.5"},
        {
            "protocol": "specialists", "scenario_id": "cityscape_2d",
            "scenario_params": {"center": (1e200, 0.5)},
        },
        "scenario.center: coordinates must be at most 1e75 in absolute value",
    ),
    ({"r0": "-1"}, {"r0": -1.0}, "r0: must be positive"),
    (  # c_n = 10^1000 at n = 10
        {"protocol": "reg_abstain", "scenario": "sine_1d", "gamma": "1000"},
        {"protocol": "reg_abstain", "scenario_id": "sine_1d", "gamma": 1000.0},
        "gamma: c_n = c0 * n^gamma overflows at n = 10",
    ),
    ({"coin_mode": "weekly"}, {"coin_mode": "weekly"}, "coin_mode: unknown"),
    ({"replications": "0"}, {"replications": 0}, "replications: must be >= 1"),
    ({"c0": "0"}, {"c0": 0.0}, "c0: must be positive"),
    ({"test_points": "0"}, {"test_points": 0}, "test_points: must be >= 1"),
    (  # the means at +-0 coincide
        {"scenario.mu": "0"}, {"scenario_params": {"mu": 0}},
        "scenario.mu: class means must be separated",
    ),
    (
        {"protocol": "reg_abstain", "scenario": "sine_1d", "scenario.noise": "-1"},
        {
            "protocol": "reg_abstain", "scenario_id": "sine_1d",
            "scenario_params": {"noise": -1},
        },
        "scenario.noise: must be nonnegative",
    ),
] + [
    (
        {"scenario": sid, f"scenario.{name}": str(value)},
        {"scenario_id": sid, "scenario_params": {name: value}},
        f"scenario.{name}: {reason}",
    )
    for sid, name, value, reason in [
        ("checkerboard_2d", "p_on", 1.5, "posterior level must lie in [0,1]"),
        ("checkerboard_2d", "p_off", -0.5, "posterior level must lie in [0,1]"),
        ("cityscape_2d", "threshold", 1, "must lie strictly in (0,1)"),
        ("cityscape_2d", "spread", 0, "must be positive"),
        ("cityscape_2d", "flip", 2, "probability must lie in [0,1]"),
    ]
] + [
    (
        {"protocol": "reg_abstain", "scenario": "sine_1d", key: value},
        {"protocol": "reg_abstain", "scenario_id": "sine_1d", key: float(value)},
        f"{key}: expected a finite number",
    )
    for key in ("r0", "beta", "c0", "gamma")
    for value in ("nan", "inf", "-inf")
]


def sweep_ini(keys):
    return "[sweep]\n" + "".join(
        f"{key} = {value}\n" for key, value in {**SWEEP_KEYS, **keys}.items()
    )


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_sweep_writes_expected_rows(tmp_path):
    cfg = write(tmp_path, SWEEP_INI)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    assert rows[0] == list(cli.CSV_COLUMNS)
    assert len(rows) == 3  # header + one row per grid point
    assert rows[1][0] == "cls_abstain"
    assert [r[3] for r in rows[1:]] == ["50", "150"]
    manifest = json.loads((out / "sweep.json").read_text())
    assert manifest["master_seed"] == 9
    assert manifest["config"]["n_grid"] == [50, 150]
    assert len(manifest["rows"]) == 2
    assert "started_at" in manifest and "finished_at" in manifest
    assert manifest["environment"]["cpu_count"] == usable_cpus()


def test_sweep_rerun_is_byte_identical(tmp_path):
    cfg = write(tmp_path, SWEEP_INI)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def _fresh_python(probe: str, *args: str) -> str:
    """The standard output of ``probe`` run in a new interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout


def test_startup_leaves_scipy_stats_and_integrate_unloaded():
    # every command pays for what importing the CLI loads; the library
    # imports neither scipy.stats nor scipy.integrate, which only the tests'
    # references use, nor scipy.spatial, which no engine calls, and a config
    # loads scipy.special only for an engine with a guesser crowd
    probe = (
        "import sys, onebitsim.cli; print(sorted(m for m in ('scipy.stats', "
        "'scipy.integrate', 'scipy.special', 'scipy.spatial') if m in sys.modules))"
    )
    assert _fresh_python(probe).strip() == "[]"


def test_sweeps_without_guessers_run_without_scipy(tmp_path):
    # cls_abstain, specialists and fixed-coin cls_noabstain, in one
    # dimension and in two, and reg_abstain call neither scipy.special nor
    # scipy.spatial, serial or pooled; per-query cls_noabstain in two
    # dimensions loads scipy.special, for its guesser crowd, and no more
    two_d = SWEEP_INI.replace("gauss_mix_1d", "gauss_mix_2d")
    noabstain = two_d.replace("cls_abstain", "cls_noabstain")
    configs = [
        write(tmp_path, SWEEP_INI, "abstain.ini"),
        write(tmp_path, SWEEP_INI.replace("cls_abstain", "cls_noabstain")
              + "coin_mode = per_sensor\n", "fixed_coins.ini"),
        write(tmp_path, SWEEP_INI.replace("cls_abstain", "reg_abstain")
              .replace("gauss_mix_1d", "sine_1d") + "gamma = 0.1\n", "regression.ini"),
        write(tmp_path, two_d.replace("cls_abstain", "specialists")
              .replace("gauss_mix_2d", "cityscape_2d"), "specialists_2d.ini"),
        write(tmp_path, two_d, "abstain_2d.ini"),
        write(tmp_path, noabstain + "coin_mode = per_sensor\n", "fixed_coins_2d.ini"),
    ]
    guessers = write(tmp_path, noabstain + "coin_mode = per_query\n", "guessers_2d.ini")
    probe = """\
import sys
from onebitsim import cli
for config in sys.argv[1:]:
    for jobs in ("1", "2"):
        out = f"{config}-{jobs}"
        code = cli.main(["sweep", "--config", config, "--out", out, "--jobs", jobs])
        loaded = [m for m in ("scipy.special", "scipy.spatial") if m in sys.modules]
        print("ran:", code, jobs, config, *loaded)
"""
    lines = [line for line in _fresh_python(probe, *configs, guessers).splitlines()
             if line.startswith("ran:")]
    assert lines == [
        f"ran: 0 {jobs} {config}" for config in configs for jobs in ("1", "2")
    ] + [f"ran: 0 {jobs} {guessers} scipy.special" for jobs in ("1", "2")]


def test_jobs_flag_does_not_change_results(tmp_path):
    cfg = write(tmp_path, SWEEP_INI)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(a), "--jobs", "1"]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(b), "--jobs", "3"]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


def test_simulate_minimal_config(tmp_path):
    cfg = write(tmp_path, SIMULATE_INI)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "simulate.csv")
    assert len(rows) == 2
    assert rows[1][1] == "sine_1d"


def test_missing_scenario_key(tmp_path, capsys):
    cfg = write(tmp_path, "[sweep]\nprotocol = cls_abstain\nn_grid = 10, 20\n")
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "scenario: required" in capsys.readouterr().err


def test_bad_keys_and_values(tmp_path, capsys):
    cases = [
        ("[sweep]\nscenario = gauss_mix_1d\nn_grid = 5, 10\n", "protocol: required"),
        (
            "[sweep]\nprotocol = cls_abstain\nscenario = gauss_mix_1d\n",
            "n_grid: required",
        ),
        (
            "[sweep]\nprotocol = cls_abstain\nscenario = gauss_mix_1d\n"
            "n_grid = 5, 10\nbeta = fast\n",
            "beta: expected a number",
        ),
        (
            "[sweep]\nprotocol = cls_abstain\nscenario = gauss_mix_1d\n"
            "n_grid = 5, 10\nwormhole = 3\n",
            "wormhole: unknown key",
        ),
        (
            "[simulate]\nprotocol = cls_abstain\nscenario = gauss_mix_1d\nn = 10\n",
            "config: section [sweep] is required",
        ),
        (
            "[sweep]\nprotocol = specialists\nscenario = cityscape_2d\n"
            "n_grid = 5, 10\nmax_rejects = 5\n",
            "max_rejects: unknown key",
        ),
        (
            "[sweep]\nprotocol = reg_noabstain\nscenario = sine_1d\n"
            "n_grid = 5, 10\nfamily_c = 2.0\n",
            "family_c: unknown key",
        ),
        (
            "[sweep]\nprotocol = reg_abstain\nscenario = sine_1d\n"
            "n_grid = 5, 10\nclamp = 2\n",
            "clamp: unknown key",
        ),
        (
            "[sweep]\nprotocol = cls_abstain\nscenario = gauss_mix_1d\n"
            "n_grid = 5, 10\ndefault_label = 0\n",
            "default_label: unknown key",
        ),
        ("[sweep\nprotocol = cls_abstain\n", "config: parse failure"),
    ] + [(sweep_ini(keys), message) for keys, _, message in VALUE_CASES]
    for text, message in cases:
        cfg = write(tmp_path, text)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "keys,fields,message", VALUE_CASES,
    ids=["{}={}".format(*list(keys.items())[-1]) for keys, _, _ in VALUE_CASES],
)
def test_library_names_the_bad_value_as_the_cli_does(keys, fields, message):
    # the library names the field where the CLI (test_bad_keys_and_values)
    # names the config key; only the scenario and its parameters differ
    key, reason = message.split(":", 1)
    field = "scenario_id" if key == "scenario" else key.replace("scenario.", "scenario_params.")
    fields = {**SWEEP_FIELDS, **fields}
    with pytest.raises(ValueError) as caught:
        schedule = protocols.Schedule(
            **{name: fields.pop(name) for name in ("r0", "beta", "c0", "gamma")
               if name in fields}
        )
        ExperimentConfig(schedule=schedule, **fields)
    assert str(caught.value).startswith(f"{field}:{reason}")


def test_every_key_reads_into_the_field_the_library_takes(tmp_path):
    text = (
        "[sweep]\nprotocol = reg_abstain\nscenario = sine_1d\nscenario.noise = 0.2\n"
        "n_grid = 10, 20\nr0 = 0.7\nbeta = 0.25\nc0 = 1.5\ngamma = 0.1\n"
        "replications = 4\ntest_points = 30\nseed = 5\ncoin_mode = per_query\n"
    )
    section = cli.load_config_section(write(tmp_path, text), "sweep")
    assert set(section) == set(cli._KEYS) | {"scenario.noise", "n_grid"}
    assert cli.build_experiment_config(section, single_n=False) == ExperimentConfig(
        protocol="reg_abstain", scenario_id="sine_1d", scenario_params={"noise": 0.2},
        schedule=protocols.Schedule(0.7, 0.25, c0=1.5, gamma=0.1),
        n_grid=(10, 20), replications=4, test_points=30, seed=5, coin_mode="per_query",
    )


def test_readme_config_example_builds_and_sets_every_key(tmp_path):
    # the README's [sweep] example is the one place that lists every key
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n[sweep]\n", 1)[1].split("```", 1)[0]
    section = cli.load_config_section(write(tmp_path, "[sweep]\n" + block), "sweep")
    assert set(cli._KEYS) <= set(section)
    assert isinstance(cli.build_experiment_config(section, single_n=False), ExperimentConfig)


def test_demo_section_takes_unset_keys_from_the_defaults_and_leaves_them(tmp_path):
    defaults = default_impossibility_config()
    before = repr(defaults)
    cfg = write(tmp_path, "[demo-impossibility]\nseed = 4\n")
    section = cli.load_config_section(cfg, "demo-impossibility")
    config = cli.build_experiment_config(section, single_n=False, defaults=defaults)
    assert config == dataclasses.replace(defaults, seed=4)
    section = {"scenario.noise": "0.2"}
    config = cli.build_experiment_config(section, single_n=False, defaults=defaults)
    assert config.scenario_params == {"noise": 0.2}
    assert repr(defaults) == before


@pytest.mark.parametrize("command,text,message", [
    ("simulate", "[simulate]\nprotocol = cls_abstain\nscenario = gauss_mix_1d\n", "n: required"),
    ("sweep", None, "config: required (--config PATH)"),
])
def test_a_command_without_its_required_input_names_it(tmp_path, capsys, command, text, message):
    argv = [command] + ([] if text is None else ["--config", write(tmp_path, text)])
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not list(tmp_path.glob("*.csv"))


def test_simulate_n_takes_one_integer(tmp_path, capsys):
    cfg = write(tmp_path, SIMULATE_INI.replace("n = 300", "n = 3, 4"))
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: n: expected an integer")


def test_jobs_below_one_is_rejected(tmp_path, capsys):
    cfg = write(tmp_path, SWEEP_INI)
    for jobs in ("0", "-3"):
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path), "--jobs", jobs]
        assert cli.main(argv) == 2
        assert "jobs: must be >= 1" in capsys.readouterr().err
    assert cli.main(["demo-impossibility", "--out", str(tmp_path), "--jobs", "0"]) == 2
    assert "jobs: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_demo_rejects_another_protocol_at_config_time(tmp_path, capsys):
    cfg = write(tmp_path, "[demo-impossibility]\nprotocol = reg_abstain\n")
    assert cli.main(["demo-impossibility", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: protocol:")
    assert not (tmp_path / "demo_impossibility.csv").exists()


@pytest.mark.filterwarnings("ignore::onebitsim.protocols.ScheduleViolationWarning")
def test_demo_writes_both_arms_and_its_summary(tmp_path, capsys):
    cfg = write(tmp_path, "[demo-impossibility]\nn_grid = 200, 400\n"
                          "replications = 2\ntest_points = 50\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["demo-impossibility", "--config", cfg, "--out", str(a)]) == 0
    out = capsys.readouterr().out
    rows = read_csv(a / "demo_impossibility.csv")
    assert rows[0] == list(cli.CSV_COLUMNS)
    assert [(r[0], r[3]) for r in rows[1:]] == [
        ("reg_noabstain", "200"), ("reg_noabstain", "400"),
        ("reg_abstain", "200"), ("reg_abstain", "400"),
    ]
    config = dataclasses.replace(
        default_impossibility_config(), n_grid=(200, 400), replications=2, test_points=50
    )
    demo = impossibility_demo(config)
    names = ("grid_mean_abs_estimate", "terminal_mse", "predicted_plateau_mse",
             "predicted_excess_plateau", "bayes_risk")
    manifest = json.loads((a / "demo_impossibility.json").read_text())
    assert manifest["summary"] == {name: getattr(demo, name) for name in names}
    assert f"mean |estimate| on query grid at n=400: {demo.grid_mean_abs_estimate:.5f}" in out
    assert f"terminal one-bit MSE: {demo.terminal_mse:.5f} (predicted plateau" in out
    excess = demo.abstain_reports[-1].excess_risk
    assert f"abstention contrast terminal excess: {excess:.5f}" in out
    argv = ["demo-impossibility", "--config", cfg, "--out", str(b), "--jobs", "2"]
    assert cli.main(argv) == 0
    csv_bytes = (a / "demo_impossibility.csv").read_bytes()
    assert (b / "demo_impossibility.csv").read_bytes() == csv_bytes


def test_report_names_missing_column(tmp_path, capsys):
    header = list(cli.CSV_COLUMNS)
    for column in ("protocol", "n", "excess_risk"):
        src = tmp_path / f"no_{column}.csv"
        kept = [c for c in header if c != column]
        src.write_text(",".join(kept) + "\n" + ",".join("1" for _ in kept) + "\n")
        argv = ["report", "--in", str(src), "--out", str(tmp_path / "figs")]
        assert cli.main(argv) == 2
        assert f"no '{column}' column" in capsys.readouterr().err
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert cli.main(["report", "--in", str(empty), "--out", str(tmp_path)]) == 2
    assert "no 'protocol' column" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row,key",
    [
        ("cls_abstain", "n"),  # once a TypeError
        ("cls_abstain,100", "excess_risk"),  # once written as "100 None"
        ("cls_abstain,100,abc", "excess_risk"),  # once copied through
        (",100,0.5", "protocol"),  # once written to convergence_.dat
        ("a/b,100,0.5", "protocol"),  # once a FileNotFoundError
    ],
)
def test_report_rejects_a_row_by_the_key_it_lacks(tmp_path, capsys, row, key):
    src = tmp_path / "sweep.csv"
    src.write_text(f"protocol,n,excess_risk\ncls_abstain,50,0.25\n{row}\n")
    out = tmp_path / "figs"
    assert cli.main(["report", "--in", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}: ")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["directory", "latin-1"])
def test_report_names_an_unreadable_input(tmp_path, capsys, kind):
    src = tmp_path / "in"
    if kind == "directory":
        src.mkdir()
    else:
        src.write_bytes("protocol,n,excess_risk\ncaf\u00e9,50,0.25\n".encode("latin-1"))
    assert cli.main(["report", "--in", str(src), "--out", str(tmp_path / "figs")]) == 2
    assert capsys.readouterr().err.startswith(f"error: in: cannot read {str(src)!r}")


def test_report_keeps_the_excess_risk_text(tmp_path):
    src = tmp_path / "sweep.csv"
    src.write_text("protocol,n,excess_risk\nspecialists,100,1e-3\nspecialists,50,0.250\n"
                   "reg_abstain,7,-0.0\n")
    assert cli.main(["report", "--in", str(src), "--out", str(tmp_path)]) == 0
    dat = lambda protocol: (tmp_path / f"convergence_{protocol}.dat").read_text()
    assert dat("specialists") == "# n excess_risk\n50 0.250\n100 1e-3\n"
    assert dat("reg_abstain") == "# n excess_risk\n7 -0.0\n"


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_bytes(SWEEP_INI.replace("seed = 9", "seed = 9 # caf\u00e9").encode("latin-1"))
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config: cannot read {str(cfg)!r}")


# each id ends in "-flag": --out, the only way to name the directory
@pytest.mark.parametrize(
    "command", ["sweep", "demo-impossibility", "report"], ids=lambda command: f"{command}-flag"
)
def test_out_naming_a_file_fails_before_any_run(tmp_path, capsys, monkeypatch, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    never = lambda *args, **kwargs: pytest.fail("ran before the out error")
    monkeypatch.setattr(cli, "run_sweep", never)
    monkeypatch.setattr(cli, "impossibility_demo", never)
    argv = {
        "sweep": ["sweep", "--config", write(tmp_path, SWEEP_INI)],
        "demo-impossibility": ["demo-impossibility"],
        "report": ["report", "--in", write(tmp_path, "protocol,n,excess_risk\n", "s.csv")],
    }[command]
    assert cli.main(argv + ["--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith(f"error: out: cannot create {str(taken)!r}")
    assert taken.read_text() == ""


@pytest.mark.parametrize("suffix", [".csv", ".json"])
@pytest.mark.parametrize("command", ["simulate", "sweep", "demo-impossibility"])
def test_an_output_file_that_is_a_directory_fails_before_any_run(
    tmp_path, capsys, monkeypatch, command, suffix
):
    out = tmp_path / "o"
    blocked = out / (command.replace("-", "_") + suffix)
    blocked.mkdir(parents=True)
    never = lambda *args, **kwargs: pytest.fail("ran before the out error")
    monkeypatch.setattr(cli, "run_sweep", never)
    monkeypatch.setattr(cli, "impossibility_demo", never)
    ini = {"simulate": SIMULATE_INI, "sweep": SWEEP_INI}.get(command)
    argv = [command] + (["--config", write(tmp_path, ini)] if ini else [])
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: out: cannot write {str(blocked)!r}")
    assert sorted(p.name for p in out.iterdir()) == [blocked.name]


def test_missing_config_file(capsys):
    assert cli.main(["sweep", "--config", "/nonexistent.ini", "--out", "/tmp"]) == 2
    assert "config:" in capsys.readouterr().err


def test_seed_override_changes_only_seed_derived_columns(tmp_path):
    cfg = write(tmp_path, SWEEP_INI)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(b), "--seed", "77"]) == 0
    rows_a = read_csv(a / "sweep.csv")
    rows_b = read_csv(b / "sweep.csv")
    static = [
        "protocol", "scenario", "d", "n", "r_n", "c_n", "schedule_validity",
        "replications", "test_points", "bayes_risk", "bits_per_query",
    ]
    idx = {col: cli.CSV_COLUMNS.index(col) for col in cli.CSV_COLUMNS}
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        for col in static:
            assert ra[idx[col]] == rb[idx[col]]
        assert rb[idx["seed"]] == "77"
        assert ra[idx["seed"]] == "9"
        assert ra[idx["risk_mean"]] != rb[idx["risk_mean"]]


@pytest.mark.filterwarnings("ignore::onebitsim.protocols.ScheduleViolationWarning")
def test_violating_schedule_still_produces_rows(tmp_path):
    text = SWEEP_INI.replace("beta = 0.3", "beta = 1.5")
    cfg = write(tmp_path, text)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv(out / "sweep.csv")
    validity = cli.CSV_COLUMNS.index("schedule_validity")
    assert len(rows) == 3
    assert all(r[validity] == "violates" for r in rows[1:])


def test_out_is_the_only_output_directory(tmp_path, monkeypatch):
    # no environment variable names the output directory: an
    # ONEBIT_SIM_OUT that names a file, which could not be created, is not read
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setenv("ONEBIT_SIM_OUT", str(taken))
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", write(tmp_path, SWEEP_INI), "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()
    assert taken.read_text() == ""


def test_verify_passes_and_names_suites(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS theorem1_equivalence" in out
    assert "PASS poisson_binomial_enumeration" in out
    assert "PASS fusion_properties" in out
    assert "PASS batch_engine" in out


def test_verify_catches_corrupted_tie_break(monkeypatch, capsys):
    # negative control: break the tie convention and the equivalence suite
    # must fail and be named
    healthy = protocols.fuse_cls_abstain

    def corrupted(responses):
        votes = [r.vote for r in responses if r.is_vote]
        if votes and 2 * sum(votes) == len(votes):
            return 0  # wrong direction on ties
        return healthy(responses)

    monkeypatch.setattr(protocols, "fuse_cls_abstain", corrupted)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL theorem1_equivalence" in out


def test_verify_catches_corrupted_batch_engine(monkeypatch, capsys):
    # negative control: flip one output of the engine every sweep uses
    healthy = predict.predict_batch

    def corrupted(network, queries, coin_seed=0):
        batch = healthy(network, queries, coin_seed)
        values = batch.values.copy()
        values[-1] = 1 - values[-1]
        return dataclasses.replace(batch, values=values)

    monkeypatch.setattr(predict, "predict_batch", corrupted)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL batch_engine" in out
    assert "PASS theorem1_equivalence" in out


def test_verify_catches_a_wrong_guesser_quantile(monkeypatch, capsys):
    # negative control: one Binomial(7, 1/2) quantile off by one
    healthy = predict.binom

    class OffByOne:
        def ppf(self, u, m):
            return healthy.ppf(u, m) + (m == 7)

    monkeypatch.setattr(predict, "binom", OffByOne())
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL batch_engine" in out and "guesser quantile off at m = 7" in out


def test_verify_catches_a_crowd_read_at_the_wrong_query(monkeypatch, capsys):
    # negative control: the engine reads each query's guesser crowd at the
    # uniform of query q + 1; the crowd's address is the one scalar sensor
    healthy = CoinSource.uniform_array

    def shifted(self, sensors, queries):
        if np.ndim(sensors) == 0:
            queries = np.asarray(queries, dtype=np.uint64) + np.uint64(1)
        return healthy(self, sensors, queries)

    monkeypatch.setattr(CoinSource, "uniform_array", shifted)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL batch_engine" in out and "differs from scalar" in out


def test_report_emits_gnuplot_columns(tmp_path):
    cfg = write(tmp_path, SWEEP_INI)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["report", "--in", str(out / "sweep.csv"), "--out", str(out)]) == 0
    lines = (out / "convergence_cls_abstain.dat").read_text().splitlines()
    assert lines[0] == "# n excess_risk"
    assert len(lines) == 3
    n, excess = lines[1].split()
    assert int(n) == 50
    float(excess)  # parses as a number
    assert cli.main(["report", "--in", str(out / "nope.csv"), "--out", str(out)]) == 2


def test_float_formatting_round_trips():
    value = 0.015811388300841896
    assert float(cli._fmt(value)) == value
    assert cli._fmt(3) == "3"
    assert cli._fmt("satisfies") == "satisfies"


def test_verify_catches_a_ball_that_bisection_alone_bounds(monkeypatch, capsys):
    # negative control: 1-d runs found by bisection on q - r and q + r only,
    # which on the 0.1 grid admit or drop points that in_ball does not
    def bisection(flat, radius, queries):
        order = np.argsort(flat)
        x, q = flat[order], queries[:, 0]
        lo = np.searchsorted(x, q - radius, side="left")
        return order, lo, np.searchsorted(x, q + radius, side="right")

    monkeypatch.setattr(predict, "_runs", bisection)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL batch_engine" in out and "differs from scalar" in out
