"""Record the sweep benchmark into ``BENCH_<label>.json``.

    python3 tools/record_bench.py --label baseline

Run it from the root of a checkout. It calls the benchmark's own runner,
``python3 perfbench/run.py --workload all --seed <run index> --trace 0``,
once for each of ``RUNS`` runs at the runner's default run length, and
then once with ``--trace 1``. From each workload's block of output it
reads the ``env:`` line (versions and ``src`` fingerprint) and the last
line, the result, as strict JSON: a bare ``NaN`` or ``Infinity`` is an
error, as is a run whose outputs failed the runner's checks, a run with a
failed sweep and a traced run without every per-layer metric that
``BENCHMARK.json`` declares. The file holds each run's result, the median
and quartiles over the runs of every end-to-end metric (taken by the
runner's own ``_median`` and ``_quartiles``), the traced run's per-layer
metrics and the machine's facts. The ``src`` fingerprint names the code
measured; no git revision is kept, since the file is committed after it is
written.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 5
RUN_TIMEOUT_S = 900  # the runner ends each of the three workloads within 180 s
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def _load_runner():
    """``perfbench/run.py`` as a module; it imports its neighbours by bare name."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return module


RUNNER = _load_runner()


def _refuse_constant(name):
    raise ValueError(f"bare {name} in a result line")


def parse_runner_output(text: str) -> dict:
    """``{workload: {"env": {...}, "result": {...}}}`` from the standard
    output of one ``perfbench/run.py`` call, in the order it ran them."""
    blocks, name = {}, None
    for line in text.splitlines():
        if line.startswith("workload "):
            name = line.split()[1].rstrip(":")
            blocks[name] = {"env": None, "last": None}
        elif name is not None:
            if line.startswith("env: "):
                blocks[name]["env"] = dict(
                    field.split(" ", 1) for field in line[len("env: "):].split(", ")
                )
            blocks[name]["last"] = line
    parsed = {}
    for name, block in blocks.items():
        if block["env"] is None or block["last"] is None:
            raise ValueError(f"workload {name}: no env line or no result line")
        result = json.loads(block["last"], parse_constant=_refuse_constant)
        if not isinstance(result, dict) or set(result) != RESULT_KEYS:
            raise ValueError(f"workload {name}: the last line is not a result: {block['last']!r}")
        if result["correct"] is not True:
            raise ValueError(f"workload {name}: the run's outputs failed their checks")
        if result["failed"] != 0:
            raise ValueError(f"workload {name}: {result['failed']} sweep cells failed")
        parsed[name] = {"env": block["env"], "result": result}
    if not parsed:
        raise ValueError("the runner printed no workload")
    return parsed


def summarize(values: list[float]) -> dict:
    """Median and quartiles of one metric over the runs, as the runner takes them."""
    return {
        "median": RUNNER._median(values),
        "quartiles": list(RUNNER._quartiles(values)),
        "runs": len(values),
    }


def aggregate(untraced: list[dict], traced: dict) -> dict:
    """The record of ``untraced`` runs (``parse_runner_output`` of each,
    run index = seed) and one traced run. Every run must measure one
    ``src`` fingerprint, and the traced run must report every per-layer
    metric."""
    trees = {block["env"]["src"] for run in [*untraced, traced] for block in run.values()}
    if len(trees) != 1:
        raise ValueError(f"the runs come from more than one tree: {sorted(trees)}")
    (src,) = trees
    workloads = {}
    for name in traced:
        layers = traced[name]["result"]["metrics"]
        if set(layers) != PER_LAYER:
            missing, extra = sorted(PER_LAYER - set(layers)), sorted(set(layers) - PER_LAYER)
            raise ValueError(f"workload {name}: traced metrics lack {missing}, add {extra}")
        runs = []
        for seed, run in enumerate(untraced):
            result = run[name]["result"]
            metrics = result["metrics"]
            values = {m: metrics[m]["value"] for m in END_TO_END if m in metrics}
            runs.append({"seed": seed, "attempted": result["attempted"],
                         "failed": result["failed"], **values})
        workloads[name] = {
            "runs": runs,
            "summary": {
                m: summarize([run[m] for run in runs if m in run])
                for m in END_TO_END if any(m in run for run in runs)
            },
            "traced": layers,
        }
    env = next(iter(traced.values()))["env"]
    return {
        "src": src,
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "nproc": env["nproc"],
            "python": env["python"],
            "numpy": env["numpy"],
            "scipy": env["scipy"],
        },
        "workloads": workloads,
    }


def _run(seed: int, trace: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
        "--trace", str(trace),
    ]
    print(" ".join(command[1:]), file=sys.stderr, flush=True)
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command[1:])} exited {done.returncode}:\n{done.stderr}")
    return parse_runner_output(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    untraced = [_run(seed, 0) for seed in range(RUNS)]
    record = {
        "what": "the sweep benchmark's result lines: `python3 perfbench/run.py --workload all "
                "--seed <run index> --trace 0` per run, then one `--trace 1` run for the "
                "per-layer metrics",
        **aggregate(untraced, _run(0, 1)),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
