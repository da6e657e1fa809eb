"""Set up one onebit-sim command once, then run and time its sweeps.

    python3 child.py SPEC.json RESULT.json

SPEC holds the CLI ``command``, its ``config`` path, the ``argv`` for
``onebitsim.cli.main`` with ``{out}`` standing for the output directory,
the ``out`` directory, the ``modes`` of one round ("sweep" and/or
"traced"; none to time set-up only) and ``seconds``.

The child first times set-up: importing ``onebitsim.cli`` and parsing and
validating the config. It then runs rounds of ``modes`` (at least one)
while one more round, as long as the slowest so far, still ends within
``seconds``. Each sweep runs in a process forked from the set-up, so it
starts from the state a fresh ``onebit-sim`` process has after set-up
without paying for the imports again, and writes to ``out/<index>``.
"traced" installs the layer spans of ``spans.py`` in that process. RESULT
receives ``setup_s`` and one record per sweep: timings, peak RSS and,
when the command raised or exited non-zero, the error.
"""

import json
import os
import resource
import sys
import time
import traceback


def _setup(command: str, config: str):
    start = time.perf_counter()
    from onebitsim import cli

    defaults = cli.default_impossibility_config() if command == "demo-impossibility" else None
    cli.build_experiment_config(
        cli.load_config_section(config, command), single_n=False, defaults=defaults
    )
    return cli, time.perf_counter() - start


def _run(cli, argv: list[str], traced: bool, setup_peak: int) -> dict:
    result = {"error": None}
    if traced:
        import spans

        tracer = spans.Tracer()
        hooks = spans.install(tracer)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
        if code != 0:
            result["error"] = f"onebit-sim exited with code {code}"
    except Exception as exc:  # the sweep is reported as failed, not aborted
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["wall_s"] = time.perf_counter() - start
    if traced:
        hooks.remove()
        result["layers"] = spans.layer_metrics(tracer, hooks.absent)
        result["absent"] = hooks.absent
    # A forked process's own peak starts at its RSS when forked; a fresh
    # process would also have had the peak reached while setting up.
    own = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, setup_peak)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (own + workers) / 1024.0
    return result


def _forked_run(cli, argv: list[str], traced: bool, setup_peak: int) -> dict:
    """``_run`` in a forked process, so that no sweep sees another's state."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            data = json.dumps(_run(cli, argv, traced, setup_peak))
        except BaseException as exc:
            data = json.dumps({"error": f"{type(exc).__name__}: {exc}"})
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
        with os.fdopen(write_fd, "w") as fh:
            fh.write(data)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"error": f"sweep process ended with wait status {status} and no result"}
    return json.loads(data)


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    try:
        cli, setup_s = _setup(spec["command"], spec["config"])
    except Exception as exc:  # an invalid config fails the run, not the benchmark
        traceback.print_exc()
        result = {"error": f"set-up: {type(exc).__name__}: {exc}", "sweeps": []}
    else:
        result = {"error": None, "setup_s": setup_s, "sweeps": []}
        setup_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        begin, slowest = time.monotonic(), 0.0
        while spec["modes"]:
            round_start = time.monotonic()
            for mode in spec["modes"]:
                index = len(result["sweeps"])
                argv = [a.replace("{out}", f"{spec['out']}/{index}") for a in spec["argv"]]
                sweep = _forked_run(cli, argv, mode == "traced", setup_peak)
                result["sweeps"].append({"mode": mode, "index": index, **sweep})
            slowest = max(slowest, time.monotonic() - round_start)
            if time.monotonic() - begin + slowest > spec["seconds"]:
                break
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
