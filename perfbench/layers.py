"""Per-layer attribution: spans around ``repro``'s public entry points.

:func:`install` wraps each timed entry point of the program from the
benchmark's side, with no change to the program. Every wrapper records
a span: its call count, its total time, and its self time (total minus
the time of spans nested inside it, on the same thread). A function
imported by name (``from repro.core.training import
train_default_model``) is rebound in every loaded ``repro`` module that
holds it, so each caller sees the wrapper.

Spans stay in memory. :func:`dump` writes them out once, when a traced
process ends; a forked ``--workers`` process resets what it inherited,
records its shard, and writes its own file beside the parent's, named
by pid.

This never installs ``repro.obs`` tracing or profiling: an active
recorder turns the compiled fast path and the controller memo off, so
a run traced that way would time a different program.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: (layer, dotted owner, attribute). An owner is a module or a class.
#: Module functions are rebound wherever imported; class attributes are
#: replaced on the class that defines them.
ENTRY_POINTS = (
    ("sparse.load", "repro.sparse.suite", "load"),
    ("kernels.trace", "repro.kernels.spmspm", "trace_spmspm"),
    ("kernels.trace", "repro.kernels.spmspv", "trace_spmspv"),
    ("harness.build_trace", "repro.experiments.harness", "build_trace"),
    ("training", "repro.core.training", "train_default_model"),
    ("dataset", "repro.core.dataset", "table3_phases"),
    ("dataset", "repro.core.dataset", "build_training_set"),
    ("ml.fit", "repro.ml.decision_tree.DecisionTreeClassifier", "fit"),
    ("fastpath.grid", "repro.fastpath.epochs.EpochGrid", "__init__"),
    ("fastpath.compile", "repro.fastpath.tables", "compile_forest"),
    (
        "transmuter.simulate_epoch",
        "repro.transmuter.machine.TransmuterModel",
        "simulate_epoch",
    ),
    (
        "transmuter.reconfig",
        "repro.transmuter.reconfig",
        "reconfiguration_cost",
    ),
    ("core.controller", "repro.core.controller.SparseAdaptController", "run"),
    ("core.predict", "repro.core.model.SparseAdaptModel", "predict"),
    ("core.policy", "repro.core.policies.ReconfigurationPolicy", "filter"),
    ("core.policy", "repro.core.policies.AggressivePolicy", "filter"),
    ("core.policy", "repro.core.policies.ConservativePolicy", "filter"),
    ("core.policy", "repro.core.policies.HybridPolicy", "filter"),
    (
        "core.policy",
        "repro.core.policies.ReconfigurationPolicy",
        "filter_with_verdicts",
    ),
    ("baselines.static", "repro.baselines.static", "run_static"),
    ("baselines.table", "repro.baselines.table.EpochTable", "__init__"),
    (
        "baselines.reconfig_matrices",
        "repro.baselines.table.EpochTable",
        "reconfig_matrices",
    ),
    ("baselines.search", "repro.baselines.static", "ideal_static"),
    ("baselines.search", "repro.baselines.greedy", "ideal_greedy"),
    ("baselines.search", "repro.baselines.oracle", "oracle"),
    ("harness.evaluate", "repro.experiments.harness", "evaluate_schemes"),
    ("runner.campaign", "repro.runner.executor.SuiteRunner", "run_portable"),
    ("runner.supervise", "repro.runner.executor.SuiteRunner", "run"),
    ("runner.supervise", "repro.runner.worker", "build_job"),
    ("runner.ledger", "repro.runner.ledger.RunLedger", "job_started"),
    ("runner.ledger", "repro.runner.ledger.RunLedger", "job_retried"),
    ("runner.ledger", "repro.runner.ledger.RunLedger", "job_done"),
    ("runner.ledger", "repro.runner.ledger.RunLedger", "job_quarantined"),
    ("runner.ledger", "repro.runner.ledger.RunLedger", "append_merge_record"),
    ("runner.ledger", "repro.runner.ledger.RunLedger", "heartbeat"),
    ("runner.ledger", "repro.runner.ledger.RunLedger", "close"),
    ("runner.ledger", "repro.runner.ledger.RunLedger", "__init__"),
    ("runner.merge", "repro.runner.ledger", "merge_shards"),
    ("runner.merge", "repro.runner.ledger", "recover_shards"),
    ("runner.worker", "repro.runner.worker", "run_worker_shard"),
)

#: A call to a layer that runs the probe layer inside it was a cache
#: miss: layer -> (probe layer, name of the hit-ratio metric).
MISS_PROBES = {
    "harness.build_trace": ("sparse.load", "harness.trace_cache.hit_ratio"),
    "training": ("dataset", "training.cache_hit_ratio"),
}


class Collector:
    """In-memory span totals of one process."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: Where forked workers write their spans (``<out>.w<pid>-<n>``).
        self.out: Optional[str] = None
        #: Decision-memo counts when spans were installed.
        self.memo_base = (0.0, 0.0)
        self.reset()

    def reset(self) -> None:
        #: layer -> [calls, total_s, self_s]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        #: Total time of each job body, per job (the runner's payload).
        self.job_walls: List[float] = []
        #: Busy time of each ``--workers`` shard this process ran.
        self.shard_walls: List[float] = []
        self.local = threading.local()

    def stack(self) -> list:
        frames = getattr(self.local, "frames", None)
        if frames is None:
            frames = self.local.frames = []
        return frames

    def count(self, name: str, amount: float = 1.0) -> None:
        with self.lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def calls(self, layer: str) -> float:
        return self.spans.get(layer, (0, 0.0, 0.0))[0]

    def timed(self, layer: str, fn: Callable, after=None) -> Callable:
        """Wrap ``fn`` in a span of ``layer``. ``after(args, kwargs,
        result, seconds)`` runs once the span closes."""
        probe = MISS_PROBES.get(layer, (None,))[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames = self.stack()
            frame = [0.0]
            frames.append(frame)
            inner = self.calls(probe) if probe else 0
            started = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - started
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                with self.lock:
                    entry = self.spans.setdefault(layer, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[0]
                if probe and self.calls(probe) != inner:
                    self.count(f"{layer}.misses")
                if after is not None:
                    after(args, kwargs, result, elapsed)

        return wrapper

    def snapshot(self, wall_s: float, memo_base) -> dict:
        return {
            "pid": os.getpid(),
            "wall_s": wall_s,
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "job_walls": list(self.job_walls),
            "shard_walls": list(self.shard_walls),
            "memo": [a - b for a, b in zip(memo_counts(), memo_base)],
        }


def memo_counts() -> tuple:
    """The controller decision memo's (hits, misses) in this process."""
    from repro.obs import metrics

    return (
        metrics.counter("fastpath.memo_hits").value,
        metrics.counter("fastpath.memo_misses").value,
    )


COLLECTOR = Collector()


def _resolve(dotted: str):
    """Import ``a.b.c`` as a module, or as attribute ``c`` of module
    ``a.b`` (a class)."""
    import importlib

    try:
        return importlib.import_module(dotted)
    except ImportError:
        module, _, name = dotted.rpartition(".")
        return getattr(importlib.import_module(module), name)


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or name.partition(".")[0] != "repro":
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _after_grid(args, kwargs, result, seconds) -> None:
    grid = args[0]
    COLLECTOR.count("fastpath.grid.cells", grid.n_workloads * grid.n_configs)


def _ledger_wrap(layer: str, attr: str, fn: Callable) -> Callable:
    """Ledger methods also count appends and the bytes they wrote."""
    if attr == "__init__":
        timed_open = COLLECTOR.timed("runner.ledger", fn)
        timed_resume = COLLECTOR.timed("runner.resume", fn)

        @functools.wraps(fn)
        def init(self, *args, **kwargs):
            resume = kwargs.get("resume", args[3] if len(args) > 3 else False)
            (timed_resume if resume else timed_open)(self, *args, **kwargs)

        return init
    timed = COLLECTOR.timed(layer, fn)

    @functools.wraps(fn)
    def method(self, *args, **kwargs):
        handle = getattr(self, "_handle", None)
        before = _size(handle)
        try:
            return timed(self, *args, **kwargs)
        finally:
            if attr != "close":
                COLLECTOR.count("runner.ledger.appends")
                COLLECTOR.count("runner.ledger.bytes", _size(handle) - before)

    return method


def _size(handle) -> int:
    if handle is None or handle.closed:
        return 0
    handle.flush()
    return os.fstat(handle.fileno()).st_size


def _job_wrap(fn: Callable) -> Callable:
    """``build_job`` returns a Job whose body gets its own span."""
    import dataclasses

    def record_job(args, kwargs, result, seconds) -> None:
        COLLECTOR.job_walls.append(seconds)

    @functools.wraps(fn)
    def build(*args, **kwargs):
        job = fn(*args, **kwargs)
        body = COLLECTOR.timed("harness.job", job.fn, after=record_job)
        return dataclasses.replace(job, fn=body)

    return build


def _shard_wrap(fn: Callable) -> Callable:
    """A forked worker drops the parent's spans it inherited, runs its
    shard, and writes its own spans for the parent to merge."""
    timed = COLLECTOR.timed("runner.worker", fn)

    @functools.wraps(fn)
    def shard(payload):
        COLLECTOR.reset()
        memo_base = memo_counts()
        started = time.perf_counter()
        try:
            return timed(payload)
        finally:
            wall = time.perf_counter() - started
            COLLECTOR.shard_walls.append(wall)
            if COLLECTOR.out is not None:
                record = COLLECTOR.snapshot(wall, memo_base)
                n = len(COLLECTOR.shard_walls)
                path = f"{COLLECTOR.out}.w{os.getpid()}-{n}"
                Path(path).write_text(json.dumps(record))

    return shard


def install(out: str) -> None:
    """Wrap every entry point, once per process. ``out`` is where
    :func:`dump` will write; forked workers write beside it."""
    import repro.cli  # noqa: F401  (loads every module a campaign uses)
    import repro.experiments.harness  # noqa: F401
    import repro.fastpath.epochs  # noqa: F401
    import repro.fastpath.tables  # noqa: F401
    import repro.runner.worker  # noqa: F401

    COLLECTOR.out = out
    COLLECTOR.memo_base = memo_counts()
    for layer, dotted, attr in ENTRY_POINTS:
        owner = _resolve(dotted)
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(COLLECTOR.timed(layer, original.fget))
            elif layer.startswith("runner.ledger"):
                wrapped = _ledger_wrap(layer, attr, original)
            elif layer == "fastpath.grid":
                wrapped = COLLECTOR.timed(layer, original, after=_after_grid)
            else:
                wrapped = COLLECTOR.timed(layer, original)
            setattr(owner, attr, wrapped)
            continue
        original = getattr(owner, attr)
        if attr == "build_job":
            wrapped = COLLECTOR.timed(layer, _job_wrap(original))
        elif attr == "run_worker_shard":
            wrapped = _shard_wrap(original)
        else:
            wrapped = COLLECTOR.timed(layer, original)
        _rebind(original, wrapped)


def dump(path: str, wall_s: float) -> None:
    """Write this process's spans (the parent's share of a traced run)."""
    record = COLLECTOR.snapshot(wall_s, COLLECTOR.memo_base)
    Path(path).write_text(json.dumps(record))


# ---------------------------------------------------------------------------
# From span dumps to per-layer metrics.

#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
CALLS_AND_SELF = (
    "sparse.load",
    "kernels.trace",
    "training",
    "ml.fit",
    "fastpath.grid",
    "fastpath.compile",
    "transmuter.simulate_epoch",
    "transmuter.reconfig",
    "core.predict",
    "core.policy",
    "harness.build_trace",
)
#: Layers reported as ``<layer>.self_s`` only.
SELF_ONLY = (
    "dataset",
    "core.controller",
    "baselines.static",
    "baselines.table",
    "baselines.reconfig_matrices",
    "baselines.search",
    "harness.evaluate",
    "harness.job",
    "runner.ledger",
    "runner.merge",
    "runner.resume",
)

#: Layers that together make one component of ``repro suite-run
#: --profile``'s table, for the attribution cross-check.
PROFILE_COMPONENTS = {
    "model_training": ("training", "dataset", "ml.fit"),
    "build_trace": ("sparse.load", "kernels.trace", "harness.build_trace"),
    "epoch_batch": ("fastpath.grid",),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(groups, n_passes: int) -> dict:
    """Per-pass layer metrics from span dumps.

    ``groups`` holds one list of dumps per traced process tree (the
    parent first, then any workers it forked); ``n_passes`` is how many
    traced passes they cover in total.
    """
    spans: dict = {}
    counts: dict = {}
    memo = [0.0, 0.0]
    wall = 0.0
    overhead = 0.0
    imbalance = []
    for group in groups:
        job_walls = [sum(dump["job_walls"]) for dump in group]
        campaign = group[0]["spans"].get("runner.campaign", [0, 0.0, 0.0])[1]
        overhead += campaign - max(job_walls, default=0.0)
        shards = [w for dump in group for w in dump["shard_walls"]]
        if shards:
            imbalance.append(max(shards) / (sum(shards) / len(shards)))
        for dump in group:
            wall += dump["wall_s"]
            memo = [a + b for a, b in zip(memo, dump["memo"])]
            for name, value in dump["counts"].items():
                counts[name] = counts.get(name, 0.0) + value
            for name, entry in dump["spans"].items():
                total = spans.setdefault(name, [0, 0.0, 0.0])
                for i, value in enumerate(entry):
                    total[i] += value

    def calls(layer: str) -> float:
        return spans.get(layer, (0,))[0]

    def self_s(layer: str) -> float:
        return spans.get(layer, (0, 0.0, 0.0))[2] / n_passes

    out: dict = {}
    for layer in CALLS_AND_SELF:
        out[f"{layer}.calls"] = calls(layer) / n_passes
        out[f"{layer}.self_s"] = self_s(layer)
    for layer in SELF_ONLY:
        out[f"{layer}.self_s"] = self_s(layer)
    for layer, (_, name) in MISS_PROBES.items():
        misses = counts.get(f"{layer}.misses", 0.0)
        out[name] = _ratio(calls(layer) - misses, calls(layer))
    for name in ("fastpath.grid.cells", "runner.ledger.appends",
                 "runner.ledger.bytes"):
        out[name] = counts.get(name, 0.0) / n_passes
    out["fastpath.memo_hit_ratio"] = _ratio(memo[0], memo[0] + memo[1])
    out["fastpath.memo_lookups"] = (memo[0] + memo[1]) / n_passes
    out["runner.job_overhead_s"] = overhead / n_passes
    out["runner.worker_imbalance"] = (
        sum(imbalance) / len(imbalance) if imbalance else 1.0
    )
    out["trace.coverage"] = _ratio(sum(e[2] for e in spans.values()), wall)
    return out


def component_ranking(metrics: dict) -> list:
    """Components of :data:`PROFILE_COMPONENTS` and every other layer,
    ordered by per-pass self time, largest first."""
    grouped = {
        component: sum(metrics.get(f"{layer}.self_s", 0.0) for layer in group)
        for component, group in PROFILE_COMPONENTS.items()
    }
    members = set().union(*PROFILE_COMPONENTS.values())
    for name, value in metrics.items():
        layer = name[: -len(".self_s")]
        if name.endswith(".self_s") and layer not in members:
            grouped[layer] = value
    return sorted(grouped, key=lambda name: -grouped[name])
