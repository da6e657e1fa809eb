"""Spans and counters recorded around onebitsim's layers, from outside it.

``install(tracer)`` wraps the names each layer exposes (``CoinSource``'s
coin lookup, the scenario samplers, ``predict_batch`` and the scipy objects
``onebitsim.predict`` calls, the harness's training, evaluation, replication
and process pool, and the CLI's config parsing and file writing). The
returned ``Hooks`` puts every original back on ``remove()``. A name that no
longer exists is skipped and listed in ``Hooks.absent``; the metrics that
need it are left out instead of failing the run.

Spans live in memory: name, start, end, parent span and the replication
they belong to. With a process pool, spans recorded inside the workers stay
in the workers and are lost, so only the parent's spans are reported.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

REPLICATION = "harness.replication"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    rep: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            start=self.clock(),
            end=math.nan,
            parent=parent.id if parent else None,
            rep=parent.rep if parent else None,
        )
        if name == REPLICATION:
            span.rep = span.id
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        if not math.isnan(span.end):
            return
        span.end = self.clock()
        if span in self._stack:
            while self._stack.pop() is not span:
                pass

    @contextmanager
    def span(self, name: str):
        opened = self.open(name)
        try:
            yield opened
        finally:
            self.close(opened)

    def count(self, key: str, amount: float) -> None:
        self.counters[key] += float(amount)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        clipped = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children[span.id]
        )
        for lo, hi in clipped:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


# ---------------------------------------------------------------------------
# hooks


class Hooks:
    """The wrappers one ``install`` put in place."""

    def __init__(self):
        self.absent: list[str] = []
        self._undo: list[Callable[[], None]] = []

    def replace(self, owner, attr: str, new) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def replace_everywhere(self, original, new) -> None:
        """Rebind ``original`` in every loaded onebitsim module that holds it."""
        for name, module in list(sys.modules.items()):
            if name == "onebitsim" or name.startswith("onebitsim."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.replace(module, attr, new)

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def _traced(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, *args)
        return result

    return traced


class _TracedProxy:
    """Delegates to ``target``; every method call is a span named ``name``."""

    def __init__(self, tracer: Tracer, target, name: str):
        self._tracer = tracer
        self._target = target
        self._name = name

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if callable(value):
            return _traced(self._tracer, self._name, value)
        return value


def _hook_coins(tracer, hooks):
    cls = importlib.import_module("onebitsim.seeding").CoinSource
    fn = cls.__dict__["uniform_array"]
    after = lambda out, *_: tracer.count("coins", out.size)
    hooks.replace(cls, "uniform_array", _traced(tracer, "seeding.coins", fn, after))


def _hook_sample(tracer, hooks):
    module = importlib.import_module("onebitsim.scenarios")
    base = module.Scenario
    classes = [
        c for c in vars(module).values()
        if isinstance(c, type) and issubclass(c, base) and "sample" in c.__dict__
    ]
    if not classes:
        raise KeyError("sample")
    after = lambda out, *_: tracer.count("rows", len(out[0]))
    for cls in classes:
        traced = _traced(tracer, "scenarios.sample", cls.__dict__["sample"], after)
        hooks.replace(cls, "sample", traced)


def _hook_cond_sample(tracer, hooks):
    fn = importlib.import_module("onebitsim.scenarios").sample_conditional_batch

    def after(out, *_):
        tracer.count("sensors", len(out[2]))
        tracer.count("untrainable", out[2].sum())

    hooks.replace_everywhere(fn, _traced(tracer, "scenarios.cond_sample", fn, after))


def _hook_predict(tracer, hooks):
    fn = importlib.import_module("onebitsim.predict").predict_batch
    after = lambda out, *_: tracer.count("pairs", out.responders.sum())
    hooks.replace_everywhere(fn, _traced(tracer, "predict", fn, after))


def _hook_kdtree(tracer, hooks):
    module = importlib.import_module("onebitsim.predict")
    build = module.cKDTree

    def traced_build(*args, **kwargs):
        with tracer.span("predict.kdtree_build"):
            tree = build(*args, **kwargs)
        return _TracedProxy(tracer, tree, "predict.kdtree_query")

    hooks.replace(module, "cKDTree", traced_build)


def _hook_binom(tracer, hooks):
    module = importlib.import_module("onebitsim.predict")
    hooks.replace(module, "binom", _TracedProxy(tracer, module.binom, "predict.binom"))


def _hook_function(module_name: str, attr: str, span: str):
    def hook(tracer, hooks):
        fn = getattr(importlib.import_module(module_name), attr)
        hooks.replace_everywhere(fn, _traced(tracer, span, fn))

    return hook


def _hook_pool(tracer, hooks):
    module = importlib.import_module("onebitsim.harness")
    base = module.ProcessPoolExecutor

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            tracer.count("pools", 1)
            self._span = tracer.open("harness.pool")
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                tracer.close(self._span)

    hooks.replace(module, "ProcessPoolExecutor", TracedPool)


def _hook_config(tracer, hooks):
    module = importlib.import_module("onebitsim.cli")
    for attr in ("load_config_section", "build_experiment_config"):
        hooks.replace(module, attr, _traced(tracer, "cli.config", getattr(module, attr)))


def _hook_write(tracer, hooks):
    module = importlib.import_module("onebitsim.cli")
    after = lambda _, path, *rest: tracer.count("bytes_written", Path(path).stat().st_size)
    for attr in ("write_csv", "write_json"):
        hooks.replace(module, attr, _traced(tracer, "cli.write", getattr(module, attr), after))


HOOKS = {
    "seeding.coins": _hook_coins,
    "scenarios.sample": _hook_sample,
    "scenarios.cond_sample": _hook_cond_sample,
    "predict": _hook_predict,
    "predict.kdtree": _hook_kdtree,
    "predict.binom": _hook_binom,
    "harness.train": _hook_function("onebitsim.harness", "train_network", "harness.train"),
    "harness.eval": _hook_function(
        "onebitsim.harness", "evaluate_conditional_risk", "harness.eval"
    ),
    REPLICATION: _hook_function("onebitsim.harness", "_replication_sample", REPLICATION),
    "harness.pool": _hook_pool,
    "cli.config": _hook_config,
    "cli.write": _hook_write,
}


def install(tracer: Tracer) -> Hooks:
    """Wrap every layer name in ``HOOKS``; missing ones go to ``absent``."""
    hooks = Hooks()
    for name, hook in HOOKS.items():
        try:
            hook(tracer, hooks)
        except (ImportError, AttributeError, KeyError):
            hooks.absent.append(name)
    return hooks


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class _Totals:
    def __init__(self, tracer: Tracer):
        self.counters = tracer.counters
        self.spans = tracer.spans
        self.self_time = self_times(tracer.spans)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def own(self, name: str) -> float:
        return sum(self.self_time[s.id] for s in self.spans if s.name == name)


_PREDICT_CHILDREN = ("predict", "seeding.coins", "predict.kdtree", "predict.binom")
_SAMPLERS = ("scenarios.sample", "scenarios.cond_sample")

# name: (unit, hooks it needs, value from the run's totals)
LAYER_METRICS = {
    "seeding.coin_s": ("s", ("seeding.coins",), lambda t: t.total("seeding.coins")),
    "seeding.coins": ("count", ("seeding.coins",), lambda t: t.counters["coins"]),
    "seeding.ns_per_coin": (
        "ns", ("seeding.coins",),
        lambda t: 1e9 * _ratio(t.total("seeding.coins"), t.counters["coins"]),
    ),
    "predict.kdtree_build_s": (
        "s", ("predict.kdtree",), lambda t: t.total("predict.kdtree_build")
    ),
    "predict.kdtree_query_s": (
        "s", ("predict.kdtree",), lambda t: t.total("predict.kdtree_query")
    ),
    "predict.binom_s": ("s", ("predict.binom",), lambda t: t.total("predict.binom")),
    "predict.s": ("s", ("predict",), lambda t: t.total("predict")),
    "predict.self_s": ("s", _PREDICT_CHILDREN, lambda t: t.own("predict")),
    "predict.pairs": ("count", ("predict",), lambda t: t.counters["pairs"]),
    "predict.ns_per_pair": (
        "ns", _PREDICT_CHILDREN,
        lambda t: 1e9 * _ratio(t.own("predict"), t.counters["pairs"]),
    ),
    "scenarios.sample_s": (
        "s", ("scenarios.sample",), lambda t: t.total("scenarios.sample")
    ),
    "scenarios.rows": ("count", ("scenarios.sample",), lambda t: t.counters["rows"]),
    "scenarios.cond_sample_s": (
        "s", ("scenarios.cond_sample",), lambda t: t.total("scenarios.cond_sample")
    ),
    "scenarios.untrainable_frac": (
        "ratio", ("scenarios.cond_sample",),
        lambda t: _ratio(t.counters["untrainable"], t.counters["sensors"]),
    ),
    "harness.train_s": (
        "s", ("harness.train",) + _SAMPLERS, lambda t: t.own("harness.train")
    ),
    "harness.eval_s": (
        "s", ("harness.eval", "scenarios.sample", "predict"),
        lambda t: t.own("harness.eval"),
    ),
    "harness.rep_s_p50": (
        "s", (REPLICATION,), lambda t: _quantile(t.durations(REPLICATION), 0.5)
    ),
    "harness.rep_s_p90": (
        "s", (REPLICATION,), lambda t: _quantile(t.durations(REPLICATION), 0.9)
    ),
    "harness.reps": ("count", (REPLICATION,), lambda t: len(t.durations(REPLICATION))),
    "harness.pools": ("count", ("harness.pool",), lambda t: t.counters["pools"]),
    "harness.pool_s": ("s", ("harness.pool",), lambda t: t.total("harness.pool")),
    "cli.config_s": ("s", ("cli.config",), lambda t: t.total("cli.config")),
    "cli.write_s": ("s", ("cli.write",), lambda t: t.total("cli.write")),
    "cli.bytes_written": ("B", ("cli.write",), lambda t: t.counters["bytes_written"]),
}


def layer_metrics(tracer: Tracer, absent: list[str]) -> dict[str, float]:
    """Every metric in LAYER_METRICS whose hooks were all installed."""
    totals = _Totals(tracer)
    return {
        name: float(value(totals))
        for name, (_, needs, value) in LAYER_METRICS.items()
        if not set(needs) & set(absent)
    }
