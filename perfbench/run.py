"""Sweep benchmark for onebitsim: time Monte Carlo sweeps through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload in turn

Run it from the root of a checkout; it uses ``src/`` directly. A run
writes a config generated from ``--seed``, times set-up (importing
``onebitsim.cli`` and parsing the config) in five fresh interpreters (one
with ``--trace 1``), and in the last of them (``child.py``) forks one
process per sweep of ``onebitsim.cli.main``. Sweeps repeat while one more
still fits in ``--seconds`` (at least one runs), every sweep's outputs are
checked, and a run ends within 180 s. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced sweeps and reports
the per-layer metrics of ``spans.py`` and the tracing overhead. README.md
defines every metric and check. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import LAYER_METRICS
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

CSV_HEADER = (
    "protocol", "scenario", "d", "n", "r_n", "c_n", "schedule_validity",
    "replications", "test_points", "risk_mean", "risk_se", "bayes_risk",
    "excess_risk", "bits_per_query", "abstain_rate", "all_abstain_frac", "seed",
)
RUN_LIMIT_S = 170.0  # a run must exit within 180 s
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_s": "s"}


def _median(values):
    return statistics.median(values) if values else None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def code_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return done.stdout.strip() or "unknown"


def environment(workload: Workload, seed: int) -> str:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return (
        f"python {platform.python_version()}, numpy {version('numpy')}, "
        f"scipy {version('scipy')}, nproc {os.cpu_count()}, "
        f"rev {git_revision()}, src {code_fingerprint()}, seed {seed}, "
        f"jobs {workload.jobs}"
    )


# ---------------------------------------------------------------------------
# output checks


def check_outputs(workload: Workload, out: Path) -> dict:
    """Digest, check failures and terminal SE of one sweep's CSV and JSON."""
    report = {"digest": None, "failures": [], "bad_rows": 0, "terminal_se": {}}
    try:
        data = (out / f"{workload.stem}.csv").read_bytes()
        manifest = json.loads((out / f"{workload.stem}.json").read_text())
        report["digest"] = hashlib.sha256(data).hexdigest()
        header, *body = list(csv.reader(io.StringIO(data.decode())))
        if tuple(header) != CSV_HEADER:
            report["failures"].append(f"CSV header is {header}")
            return report
        rows = [dict(zip(header, values)) for values in body]
        cells = [(r["protocol"], int(r["n"])) for r in rows]
        if cells != workload.cells:
            report["failures"].append(f"CSV cells are {cells}")
            return report
        for r in rows:
            if not float(r["excess_risk"]) >= -3.0 * float(r["risk_se"]):
                report["bad_rows"] += 1
                report["failures"].append(
                    f"{r['protocol']} n={r['n']}: excess_risk {r['excess_risk']} "
                    f"< -3 * risk_se {r['risk_se']}"
                )
            report["terminal_se"][r["protocol"]] = float(r["risk_se"])
        report["failures"] += workload.accept(rows, manifest)
    except (OSError, ValueError, KeyError) as exc:
        report["failures"].append(f"unreadable output: {type(exc).__name__}: {exc}")
    return report


def failed_cells(workload: Workload, sweep: dict) -> int:
    cells = len(workload.cells)
    if sweep["error"]:
        return cells
    if len(sweep["failures"]) > sweep["bad_rows"]:  # a check on the whole sweep
        return cells
    return sweep["bad_rows"]


def check_digests(workload: Workload, seed: int, sweeps: list[dict]) -> None:
    """Every sweep of this code, config and seed must write the same CSV bytes."""
    config = hashlib.sha256(
        (workload.config_text(seed) + " ".join(workload.argv("", ""))).encode()
    ).hexdigest()[:16]
    key = f"{workload.name} seed={seed} config={config} src={code_fingerprint()}"
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    for sweep in sweeps:
        if sweep["digest"] is None:
            continue
        expected = known.setdefault(key, sweep["digest"])
        if sweep["digest"] != expected:
            sweep["failures"].append(
                f"CSV sha256 {sweep['digest']} differs from {expected} "
                "for the same code and seed"
            )
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)


# ---------------------------------------------------------------------------
# running sweeps


class Runner:
    """Starts child.py interpreters for one workload and keeps to the deadline."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.dir = WORK / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "config.ini"
        self.config.write_text(workload.config_text(seed))
        self.out = self.dir / "out"
        self.env = dict(os.environ)
        self.env.pop("ONEBIT_SIM_OUT", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, modes: tuple[str, ...], seconds: float) -> tuple[float | None, list[dict]]:
        """Run child.py: one set-up, then rounds of ``modes`` for about
        ``seconds``. Returns the set-up time (None if it failed) and the
        sweeps, each with its output checks."""
        spec = {
            "command": self.workload.command,
            "config": str(self.config),
            "argv": self.workload.argv(str(self.config), "{out}"),
            "out": str(self.out),
            "modes": list(modes),
            "seconds": min(seconds, self.remaining() / 2),  # room for a slow last round
        }
        spec_path, result_path = self.dir / "spec.json", self.dir / "result.json"
        spec_path.write_text(json.dumps(spec))
        result_path.unlink(missing_ok=True)
        shutil.rmtree(self.out, ignore_errors=True)
        with open(self.dir / f"{'-'.join(modes) or 'setup'}.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                proc.wait(timeout=max(self.remaining(), 1.0))
                error = None
            except subprocess.TimeoutExpired:
                error = "timed out at the run's deadline"
            finally:
                try:  # the child, its sweeps and any pool worker left behind
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        result = {"error": error, "sweeps": []}
        if error is None:
            try:
                result = json.loads(result_path.read_text())
            except (OSError, ValueError):
                result["error"] = f"child exited with code {proc.returncode} and no result"
        sweeps = result["sweeps"]
        if not sweeps and modes:  # nothing ran: the run's one sweep failed
            sweeps = [{"mode": modes[0], "index": 0, "error": result["error"]}]
        for sweep in sweeps:
            sweep.update(
                check_outputs(self.workload, self.out / str(sweep["index"]))
                if sweep["error"] is None
                else {"digest": None, "failures": [], "bad_rows": 0, "terminal_se": {}}
            )
        return result.get("setup_s"), sweeps


# ---------------------------------------------------------------------------
# reporting


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    print(f"workload {workload.name}: {workload.why}")
    print(f"env: {environment(workload, seed)}")
    runner = Runner(workload, seed)
    begin = time.monotonic()
    setups = [] if trace else [runner.child((), 0.0)[0] for _ in range(SETUP_SAMPLES - 1)]
    modes = ("sweep", "traced") if trace else ("sweep",)
    setup_s, sweeps = runner.child(modes, seconds - (time.monotonic() - begin))
    setups = [s for s in setups + [setup_s] if s is not None]
    if setups:
        print(f"setup: {', '.join(f'{s:.3f}' for s in setups)} s")
    check_digests(workload, seed, sweeps)

    failed = 0
    for i, sweep in enumerate(sweeps, 1):
        sweep["failed"] = failed_cells(workload, sweep)
        failed += sweep["failed"]
        status = sweep["error"] or ("; ".join(sweep["failures"]) or "checks ok")
        wall = sweep.get("wall_s", float("nan"))
        print(
            f"sweep {i}/{len(sweeps)} {sweep['mode']}: "
            f"wall {wall:.3f} s, "
            f"rss {sweep.get('peak_rss_mb', float('nan')):.1f} MB, "
            f"csv sha256 {(sweep['digest'] or '-')[:16]}, {status}"
        )
    attempted = len(workload.cells) * len(sweeps)
    completed = [s for s in sweeps if s["error"] is None]
    plain = [s for s in completed if s["mode"] == "sweep"]
    traced = [s for s in completed if s["mode"] == "traced"]
    correct = bool(completed) and not any(s["failures"] for s in sweeps)

    print(f"failed_frac: {failed / attempted:.6g} ratio ({failed} of {attempted} cells)")
    for protocol, se in (completed[0]["terminal_se"] if completed else {}).items():
        print(f"terminal_se: {se:.6g} risk ({protocol} risk_se at n={workload.n_grid[-1]})")

    metrics = {}
    walls = [s["wall_s"] for s in plain]
    if walls:
        q1, q3 = _quartiles(walls)
        print(
            f"wall_s: median {_median(walls):.4f} s, quartiles {q1:.4f}..{q3:.4f} s, "
            f"{len(walls)} sweeps"
        )
    if not trace:
        values = {
            "wall_s": _median(walls),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([s["peak_rss_mb"] for s in plain]),
        }
        for name, value in values.items():
            if value is not None:
                metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
    else:
        absent = sorted({name for s in traced for name in s["absent"]})
        if absent:
            print(f"absent layer hooks (their metrics are left out): {', '.join(absent)}")
        for name, (unit, _, _) in LAYER_METRICS.items():
            values = [s["layers"][name] for s in traced if name in s["layers"]]
            if values and len(values) == len(traced):
                metrics[name] = {"value": _median(values), "unit": unit}
        traced_wall = _median([s["wall_s"] for s in traced])
        if traced_wall is not None and walls:
            values = {"trace.wall_s": traced_wall, "trace.overhead_s": traced_wall - _median(walls)}
            for name, value in values.items():
                metrics[name] = {"value": value, "unit": TRACE_UNITS[name]}
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "onebitsim" / "cli.py").is_file():
        print(f"perfbench: no onebitsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
