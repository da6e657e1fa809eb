"""Config parsing, command behavior, and output file stability."""

import csv
import dataclasses
import json

import pytest

from onebitsim import cli
from onebitsim import predict
from onebitsim import protocols


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


def test_sweep_rerun_is_byte_identical(tmp_path):
    cfg = write(tmp_path, SWEEP_INI)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


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
            "[sweep]\nprotocol = smoke\nscenario = gauss_mix_1d\nn_grid = 5, 10\n",
            "protocol: unknown",
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
            "section [sweep] is required",
        ),
        (
            "[sweep]\nprotocol = cls_abstain\nscenario = gauss_mix_1d\n"
            "n_grid = 5, 10\nscenario.sigma = abc\n",
            "scenario.sigma: expected finite numbers",
        ),
        (
            "[sweep]\nprotocol = cls_abstain\nscenario = gauss_mix_1d\n"
            "n_grid = 5, 10\nscenario.sigma = -1\n",
            "scenario.sigma: sigma must be positive",
        ),
        (
            "[sweep]\nprotocol = cls_abstain\nscenario = gauss_mix_1d\n"
            "n_grid = 5, 10\nscenario.bogus = 1\n",
            "scenario.bogus: unknown parameter",
        ),
        (
            "[sweep]\nprotocol = cls_abstain\nscenario = gauss_mix_1d\n"
            "n_grid = 5, 10\nscenario.sigma = nan\n",
            "scenario.sigma: expected finite numbers",
        ),
        (
            "[sweep]\nprotocol = cls_abstain\nscenario = sine_1d\nn_grid = 5, 10\n",
            "scenario: sine_1d does not fit: cls_abstain needs a classification",
        ),
        (
            "[sweep]\nprotocol = specialists\nscenario = cityscape_2d\n"
            "n_grid = 5, 10\nmax_rejects = 5\n",
            "max_rejects: unknown key",
        ),
    ] + [
        (
            "[sweep]\nprotocol = reg_abstain\nscenario = sine_1d\n"
            f"n_grid = 5, 10\n{key} = {value}\n",
            f"{key}: expected a finite number",
        )
        for key in ("r0", "beta", "c0", "gamma", "clamp", "family_c")
        for value in ("nan", "inf", "-inf")
    ]
    for text, message in cases:
        cfg = write(tmp_path, text)
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err


def test_jobs_below_one_is_rejected(tmp_path, capsys):
    cfg = write(tmp_path, SWEEP_INI)
    for jobs in ("0", "-3"):
        argv = ["sweep", "--config", cfg, "--out", str(tmp_path), "--jobs", jobs]
        assert cli.main(argv) == 2
        assert "jobs: must be >= 1" in capsys.readouterr().err
    assert cli.main(["demo-impossibility", "--out", str(tmp_path), "--jobs", "0"]) == 2
    assert "jobs: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


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


def test_env_var_overrides_out_dir(tmp_path, monkeypatch):
    cfg = write(tmp_path, SWEEP_INI)
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("ONEBIT_SIM_OUT", str(env_dir))
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "flag")]) == 0
    assert (env_dir / "sweep.csv").exists()
    assert not (tmp_path / "flag").exists()


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

    def corrupted(responses, default_label=0):
        votes = [r.vote for r in responses if r.is_vote]
        if votes and 2 * sum(votes) == len(votes):
            return 0  # wrong direction on ties
        return healthy(responses, default_label)

    monkeypatch.setattr(protocols, "fuse_cls_abstain", corrupted)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL theorem1_equivalence" in out


def test_verify_catches_corrupted_batch_engine(monkeypatch, capsys):
    # negative control: flip one output of the engine every sweep uses
    healthy = predict.predict_batch

    def corrupted(network, queries, coin_seed=0, default_label=0):
        batch = healthy(network, queries, coin_seed, default_label)
        values = batch.values.copy()
        values[-1] = 1 - values[-1]
        return dataclasses.replace(batch, values=values)

    monkeypatch.setattr(predict, "predict_batch", corrupted)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL batch_engine" in out
    assert "PASS theorem1_equivalence" in out


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
