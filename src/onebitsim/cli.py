"""Command-line interface: config parsing, experiment commands, emission.

Config files are flat ``key = value`` INI text with one section per
command (see README for the full key list). Results land in two files per
command: a CSV with one row per (protocol, scenario, n) cell in a fixed,
versioned column order, and a JSON manifest that echoes the full config,
seeds, and timestamps needed to reproduce the run. Timestamps live only in
the manifest so reruns of the same config produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import datetime
import json
import os
import platform
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import scipy  # the top package only, for its version: ~11 ms, no submodule

from . import __version__
from .harness import (
    ExperimentConfig,
    RiskReport,
    default_impossibility_config,
    impossibility_arms,
    impossibility_demo,
    pool_workers,
    run_sweep,
    usable_cpus,
)
from .protocols import PROTOCOLS, Schedule
from .verify import run_verify_suites

CSV_COLUMNS = (
    "protocol",
    "scenario",
    "d",
    "n",
    "r_n",
    "c_n",
    "schedule_validity",
    "replications",
    "test_points",
    "risk_mean",
    "risk_se",
    "bayes_risk",
    "excess_risk",
    "bits_per_query",
    "abstain_rate",
    "all_abstain_frac",
    "seed",
)


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


# the CSV columns whose RiskReport field has another name
_REPORT_FIELDS = {"scenario": "scenario_id", "d": "dimension"}


def _fmt(value) -> str:
    """Full round-trip decimal text for numbers; plain text otherwise."""
    return repr(value) if isinstance(value, float) else str(value)


def report_row(report: RiskReport) -> dict:
    return {col: getattr(report, _REPORT_FIELDS.get(col, col)) for col in CSV_COLUMNS}


def write_csv(path: Path, reports: list[RiskReport]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for report in reports:
            row = report_row(report)
            writer.writerow([_fmt(row[col]) for col in CSV_COLUMNS])


def write_json(path: Path, manifest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# config parsing


def _parse_scalar(key: str, raw: str, kind, what: str):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected {what}, got {raw!r}") from None


def _parse_param_part(part: str):
    for kind in (int, float):
        try:
            return kind(part)
        except ValueError:
            pass
    return part  # not a number: make_scenario names the parameter


def _parse_param_value(raw: str):
    values = tuple(_parse_param_part(part.strip()) for part in raw.split(","))
    return values[0] if len(values) == 1 else values


def load_config_section(path: str, command: str) -> dict:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r} ({exc.strerror})") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config: cannot read {path!r} (not UTF-8 text)") from None
    except configparser.Error as exc:
        raise ConfigError(f"config: parse failure: {exc}") from None
    if not parser.has_section(command):
        raise ConfigError(f"config: section [{command}] is required")
    return dict(parser.items(command))


# config keys whose ExperimentConfig field has another name
_FIELD_KEYS = (("scenario_id:", "scenario:"), ("scenario_params.", "scenario."))


def _config_error(exc: ValueError) -> ConfigError:
    """The library's ``"<field>: <reason>"`` as ``"<key>: <reason>"``."""
    text = str(exc)
    for field, key in _FIELD_KEYS:
        if text.startswith(field):
            text = key + text[len(field):]
    return ConfigError(text)


# ExperimentConfig's field defaults and the schedule's; None for keys a config must set
_CONFIG_DEFAULTS = {
    f.name: None if f.default is dataclasses.MISSING else f.default
    for f in dataclasses.fields(ExperimentConfig)
} | {"schedule": Schedule(0.5, 0.3), "scenario_params": {}}

# config key: (ExperimentConfig or Schedule field, parse kind), in the order
# their bad text is reported
_KEYS = {
    "protocol": ("protocol", str), "scenario": ("scenario_id", str),
    "r0": ("r0", float), "beta": ("beta", float), "c0": ("c0", float),
    "gamma": ("gamma", float), "clamp": ("clamp", float),
    "replications": ("replications", int), "test_points": ("test_points", int),
    "seed": ("seed", int), "default_label": ("default_label", int),
    "coin_mode": ("coin_mode", str),
}
_KIND_NAMES = {str: "text", int: "an integer", float: "a number"}


def build_experiment_config(
    section: dict,
    *,
    single_n: bool,
    seed_override: Optional[int] = None,
    defaults: Optional[ExperimentConfig] = None,
) -> ExperimentConfig:
    """Translate a config section into an ExperimentConfig.

    ``single_n`` selects between the ``n`` key (simulate) and ``n_grid``
    (sweep). An unset key takes its value from ``defaults`` (used by the
    demo command), else from ``ExperimentConfig`` and ``Schedule(0.5,
    0.3)``. Only the text is checked here; ``Schedule`` and
    ``ExperimentConfig`` check the values.
    """
    section = dict(section)
    values = dict(vars(defaults) if defaults else _CONFIG_DEFAULTS)
    schedule = values.pop("schedule")
    values.update(vars(schedule), scenario_params=dict(values["scenario_params"]))
    for key in ("protocol", "scenario"):
        if section.get(key, values[_KEYS[key][0]]) is None:
            raise ConfigError(f"{key}: required")
    for key in [k for k in section if k.startswith("scenario.")]:
        values["scenario_params"][key.split(".", 1)[1]] = _parse_param_value(section.pop(key))

    if single_n:
        if "n" not in section:
            raise ConfigError("n: required")
        values["n_grid"] = (_parse_scalar("n", section.pop("n"), int, "an integer"),)
    elif "n_grid" in section:
        values["n_grid"] = tuple(
            _parse_scalar("n_grid", part.strip(), int, "integers")
            for part in section.pop("n_grid").split(",")
            if part.strip()
        )
    if not values["n_grid"]:
        raise ConfigError("n_grid: required")

    for key, (field, kind) in _KEYS.items():
        if key in section:
            values[field] = _parse_scalar(key, section.pop(key), kind, _KIND_NAMES[kind])
    if seed_override is not None:
        values["seed"] = seed_override
    if section:
        raise ConfigError(f"{sorted(section)[0]}: unknown key")
    try:
        schedule = Schedule(**{name: values.pop(name) for name in vars(schedule)})
        return ExperimentConfig(schedule=schedule, **values)
    except ValueError as exc:
        raise _config_error(exc) from None


# ---------------------------------------------------------------------------
# commands


def _out_dir(args) -> Path:
    """The output directory (``ONEBIT_SIM_OUT``, else ``--out``), created
    if missing; one that cannot be is an ``out:`` error."""
    path = Path(os.environ.get("ONEBIT_SIM_OUT") or args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out: cannot create {str(path)!r} ({exc.strerror})") from None
    return path


def _out_stem(args, command: str) -> Path:
    """``<out>/<stem>``, the stem being the command with ``_`` for ``-``.
    Its ``.csv`` and ``.json`` are opened for appending (and a new one
    removed again) before the run, so that one which cannot be written is
    an ``out:`` error rather than a traceback after the last cell."""
    stem = _out_dir(args) / command.replace("-", "_")
    for path in (Path(f"{stem}.csv"), Path(f"{stem}.json")):
        existed = path.exists()
        try:
            open(path, "a").close()
        except OSError as exc:
            raise ConfigError(f"out: cannot write {str(path)!r} ({exc.strerror})") from None
        if not existed:
            path.unlink()
    return stem


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _print_table(reports: list[RiskReport]) -> None:
    print(
        f"{'protocol':>14} {'n':>8} {'risk':>10} {'excess':>10} "
        f"{'se':>9} {'abstain':>8} validity"
    )
    for r in reports:
        print(
            f"{r.protocol:>14} {r.n:>8} {r.risk_mean:>10.5f} "
            f"{r.excess_risk:>10.5f} {r.risk_se:>9.5f} "
            f"{r.abstain_rate:>8.4f} {r.schedule_validity}"
        )


def _read_config(args, command: str, single_n: bool, defaults=None) -> ExperimentConfig:
    """The config from ``--config``, else from ``defaults``, with ``--seed`` applied."""
    if args.jobs < 1:
        raise ConfigError(f"jobs: must be >= 1, got {args.jobs}")
    if args.config is None and defaults is None:
        raise ConfigError("config: required (--config PATH)")
    section = {} if args.config is None else load_config_section(args.config, command)
    return build_experiment_config(section, single_n=single_n, seed_override=args.seed,
                                   defaults=defaults)


def _emit(args, stem: Path, command: str, config, reports, started, extra=None) -> None:
    """Write ``<stem>.csv`` and ``<stem>.json`` (``_out_stem``) and print the table.
    The manifest's ``extra`` keys join its fixed ones. Its ``environment``
    holds interpreter, library and machine facts, plus the number of
    processes (this one included) that run each sweep's tasks."""
    manifest = {
        "tool": "onebit-sim",
        "version": __version__,
        "command": command,
        "master_seed": config.seed,
        "started_at": started,
        "finished_at": _now(),
        "config": dataclasses.asdict(config),
        "rows": [report_row(r) for r in reports],
        "wall_time_s": [r.wall_time_s for r in reports],
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cpu_count": usable_cpus(),
            "jobs": args.jobs,
            "workers": pool_workers(args.jobs, len(config.n_grid) * config.replications),
        },
        **(extra or {}),
    }
    write_csv(Path(f"{stem}.csv"), reports)
    write_json(Path(f"{stem}.json"), manifest)
    _print_table(reports)


def _run_experiment(args, command: str, single_n: bool) -> int:
    config = _read_config(args, command, single_n)
    stem = _out_stem(args, command)
    started = _now()
    reports = run_sweep(config, jobs=args.jobs)
    _emit(args, stem, command, config, reports, started)
    print(f"wrote {stem}.csv and {stem}.json")
    return 0


def cmd_simulate(args) -> int:
    return _run_experiment(args, "simulate", single_n=True)


def cmd_sweep(args) -> int:
    return _run_experiment(args, "sweep", single_n=False)


def cmd_demo(args) -> int:
    config = _read_config(args, "demo-impossibility", single_n=False,
                          defaults=default_impossibility_config())
    try:
        impossibility_arms(config)
    except ValueError as exc:
        raise _config_error(exc) from None
    stem = _out_stem(args, "demo-impossibility")
    started = _now()
    demo = impossibility_demo(config, jobs=args.jobs)
    reports = list(demo.noabstain_reports) + list(demo.abstain_reports)
    summary = {name: getattr(demo, name) for name in (
        "grid_mean_abs_estimate", "terminal_mse", "predicted_plateau_mse",
        "predicted_excess_plateau", "bayes_risk",
    )}
    _emit(args, stem, "demo-impossibility", config, reports, started,
          extra={"summary": summary})
    print(f"mean |estimate| on query grid at n={config.n_grid[-1]}: "
          f"{demo.grid_mean_abs_estimate:.5f}")
    print(f"terminal one-bit MSE: {demo.terminal_mse:.5f} "
          f"(predicted plateau {demo.predicted_plateau_mse:.5f}, "
          f"optimal {demo.bayes_risk:.5f})")
    print(f"abstention contrast terminal excess: "
          f"{demo.abstain_reports[-1].excess_risk:.5f}")
    return 0


def cmd_verify(args) -> int:
    results = run_verify_suites()
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    return 0 if failed == 0 else 1


def cmd_report(args) -> int:
    by_protocol: dict[str, list[tuple[int, str]]] = {}
    try:
        with open(args.infile, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for column in ("protocol", "n", "excess_risk"):
                if column not in (reader.fieldnames or ()):
                    raise ConfigError(f"in: {args.infile!r} has no {column!r} column")
            for row in reader:
                if row["protocol"] not in PROTOCOLS:  # it names an output file
                    raise ConfigError(f"protocol: unknown {row['protocol']!r} "
                                      f"on line {reader.line_num}")
                n = _parse_scalar("n", row["n"] or "", int, "an integer")
                excess = row["excess_risk"] or ""
                _parse_scalar("excess_risk", excess, float, "a number")  # kept as written
                by_protocol.setdefault(row["protocol"], []).append((n, excess))
    except OSError as exc:
        raise ConfigError(f"in: cannot read {args.infile!r} ({exc.strerror})") from None
    except UnicodeDecodeError:
        raise ConfigError(f"in: cannot read {args.infile!r} (not UTF-8 text)") from None
    out = _out_dir(args)
    for protocol, rows in sorted(by_protocol.items()):
        path = out / f"convergence_{protocol}.dat"
        with open(path, "w") as fh:
            fh.write("# n excess_risk\n")
            for n, excess in sorted(rows):
                fh.write(f"{n} {excess}\n")
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onebit-sim",
        description="Simulate one-bit distributed learning protocols.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config file (INI)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes, at least 1; clamped to the sweep's "
            "(n, replication) task count and the CPU count (never changes "
            "results)",
        )

    p = sub.add_parser("simulate", help="run a single (protocol, scenario, n) cell")
    common(p)
    p.set_defaults(func=cmd_simulate)
    p = sub.add_parser("sweep", help="run a full n-grid sweep")
    common(p)
    p.set_defaults(func=cmd_sweep)
    p = sub.add_parser(
        "demo-impossibility",
        help="contrast one-bit regression with and without abstention",
    )
    common(p)
    p.set_defaults(func=cmd_demo)
    p = sub.add_parser("verify", help="run the built-in oracle suites")
    p.set_defaults(func=cmd_verify)
    p = sub.add_parser(
        "report", help="emit gnuplot-ready (n, excess_risk) files from a sweep CSV"
    )
    p.add_argument("--in", dest="infile", required=True, help="sweep CSV to read")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
