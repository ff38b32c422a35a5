"""Per-layer spans, recorded by wrappers around paxml's public functions.

Nothing inside ``src/`` is instrumented.  :func:`install` replaces each
layer function with a wrapper wherever callers look it up: the class
attribute for methods, and every loaded ``paxml`` module attribute that is
the same function object (so ``from ... import name`` copies are patched
too).  A wrapper opens a span (name, start, end, parent); spans are
aggregated as they close, so memory stays flat however many calls a run
makes:

* ``calls`` — number of spans closed;
* ``self_s`` — span duration minus the time its child spans covered
  (children of an async span may overlap; their sum is capped at the
  parent's duration);
* layer-specific counts (assignments, accepted inserts, bytes, ...)
  gathered by post hooks, from which the useful/attempted ratios follow.

Spans are recorded only inside :class:`timed` regions, the parts of a run
whose latency the benchmark measures, so the benchmark's own input
building and reference checks are not charged to paxml's layers.  The
first :data:`RAW_SPANS` closed spans are also kept raw and written out by
:func:`dump`, so a run's span tree can be inspected.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

RAW_SPANS = 20_000

_now = time.perf_counter
_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)

# name -> [calls, self_s, total_s]
STATS: Dict[str, List[float]] = {}
COUNTS: Dict[str, float] = {}
RAW: List[Tuple[str, float, float, Optional[str]]] = []
TOP = [0.0]         # time covered by spans that have no parent span
TIMED = [0.0]       # wall time spent inside timed regions
_recording = [False]
_perf_base: Dict[str, int] = {}

# Scheduler counters paxml keeps in ``perf.stats``; reported as deltas.
PERF_KEYS = ("calls_skipped_unneeded", "dormant_promotions",
             "fire_once_retired")

_installed: Dict[str, Tuple[object, str, object]] = {}


def reset() -> None:
    """Forget every span and count (the wrappers stay installed)."""
    for record in STATS.values():
        record[0] = 0
        record[1] = 0.0
        record[2] = 0.0
    COUNTS.clear()
    RAW.clear()
    TOP[0] = 0.0
    TIMED[0] = 0.0
    _perf_base.clear()
    _perf_base.update(_perf_counts())


def _perf_counts() -> Dict[str, int]:
    from paxml import perf
    return {key: getattr(perf.stats, key) for key in PERF_KEYS}


class timed:
    """One timed region, used as a context manager: its wall time is
    ``seconds`` once it closes.  Inside it, installed wrappers record
    spans; outside, they call straight through."""

    seconds = 0.0

    def __enter__(self) -> "timed":
        self._outer = _recording[0]
        _recording[0] = bool(_installed)
        self.started = _now()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = _now() - self.started
        _recording[0] = self._outer
        TIMED[0] += self.seconds


def count(name: str, amount: float = 1) -> None:
    COUNTS[name] = COUNTS.get(name, 0) + amount


def _close(name: str, frame: list, parent: Optional[list],
           start: float, end: float) -> None:
    duration = end - start
    record = STATS[name]
    record[0] += 1
    record[1] += duration - min(frame[1], duration)
    record[2] += duration
    if parent is None:
        TOP[0] += duration
    else:
        parent[1] += duration
    if len(RAW) < RAW_SPANS:
        RAW.append((name, start, end, parent[0] if parent else None))


def _wrap(name: str, fn: Callable, post: Optional[Callable]) -> Callable:
    STATS.setdefault(name, [0, 0.0, 0.0])
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            if not _recording[0]:
                return await fn(*args, **kwargs)
            parent = _current.get()
            frame = [name, 0.0, parent]
            token = _current.set(frame)
            start = _now()
            try:
                result = await fn(*args, **kwargs)
            finally:
                end = _now()
                _current.reset(token)
                _close(name, frame, parent, start, end)
            if post is not None:
                post(result, args)
            return result
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not _recording[0]:
            return fn(*args, **kwargs)
        parent = _current.get()
        frame = [name, 0.0, parent]
        token = _current.set(frame)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _now()
            _current.reset(token)
            _close(name, frame, parent, start, end)
        if post is not None:
            post(result, args)
        return result
    return wrapper


# -- post hooks: the counts behind the useful/attempted ratios -------------


def _counter(key: str, measure: Callable) -> Callable:
    def post(result, args):
        count(key, measure(result, args))
    return post


def _inside(name: str, barrier: str) -> bool:
    """Whether the innermost open span named ``name`` or ``barrier`` is
    ``name`` (post hooks run once their own span has closed)."""
    frame = _current.get()
    while frame is not None:
        if frame[0] == name:
            return True
        if frame[0] == barrier:
            return False
        frame = frame[2]
    return False


def _delta_assignments(result, args) -> int:
    """Assignments enumerated for incremental evaluation, the work behind
    ``query.match.useful_frac``; snapshot queries and reads add no
    answers, so their assignments are left out."""
    if _inside("query.incremental.evaluate_delta",
               "query.snapshot.evaluate_snapshot"):
        return len(result)
    return 0


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# (span name, module, class or None, attribute, post hook or None)
LAYERS = [
    ("query.incremental.evaluate_delta", "paxml.query.incremental",
     "IncrementalQueryEvaluator", "evaluate_delta",
     _counter("query.match.answers", lambda r, a: len(r))),
    ("query.match.enumerate_assignments", "paxml.query.matching", None,
     "enumerate_assignments",
     _counter("query.match.assignments", _delta_assignments)),
    ("query.match.enumerate_assignments_delta", "paxml.query.matching", None,
     "enumerate_assignments_delta",
     _counter("query.match.assignments", _delta_assignments)),
    ("query.snapshot.evaluate_snapshot", "paxml.query.matching", None,
     "evaluate_snapshot", None),
    ("tree.antichain.insert", "paxml.tree.antichain", "BitsetAntichain",
     "insert", _counter("tree.antichain.accepted", lambda r, a: bool(r))),
    ("tree.subsumption.is_subsumed", "paxml.tree.subsumption", None,
     "is_subsumed", None),
    ("tree.reduction.canonical_key", "paxml.tree.reduction", None,
     "canonical_key", None),
    ("system.invocation.evaluate_call_delta", "paxml.system.invocation", None,
     "evaluate_call_delta", None),
    ("kernel.core.apply_graft", "paxml.kernel.core", "EvaluationKernel",
     "apply_graft",
     _counter("kernel.core.productive_grafts", lambda r, a: bool(r))),
    ("kernel.core.apply_external", "paxml.kernel.core", "EvaluationKernel",
     "apply_external", None),
    ("system.invocation.graft_answers", "paxml.system.invocation", None,
     "graft_answers", None),
    ("tree.store.note_graft", "paxml.tree.store", None, "note_graft", None),
    ("tree.index.note_graft", "paxml.tree.index", None, "note_graft", None),
    ("kernel.scheduler.pop", "paxml.kernel.scheduler", "CallScheduler",
     "pop", None),
    ("analysis.relevance.on_graft", "paxml.analysis.relevance",
     "RelevanceTracker", "on_graft", None),
    ("analysis.relevance.reseed", "paxml.analysis.relevance",
     "RelevanceTracker", "reseed", None),
    ("kernel.graft.encode_batch", "paxml.kernel.graft", None, "encode_batch",
     _counter("kernel.graft.encode_batch.bytes", lambda r, a: len(r))),
    ("kernel.graft.decode_batch", "paxml.kernel.graft", None, "decode_batch",
     _counter("kernel.graft.decode_batch.bytes", lambda r, a: len(a[0]))),
    ("kernel.core.checkpoint", "paxml.kernel.core", "EvaluationKernel",
     "checkpoint",
     _counter("kernel.core.checkpoint.bytes", lambda r, a: _file_size(r))),
    ("kernel.checkpoint.resume", "paxml.kernel.checkpoint", None, "resume",
     _counter("kernel.checkpoint.resume.bytes",
              lambda r, a: _file_size(a[0]))),
    ("serve.session.inject", "paxml.serve.session", "TenantSession",
     "inject", None),
    ("serve.session.run_slice", "paxml.serve.session", "TenantSession",
     "run_slice", None),
    ("serve.session.read", "paxml.serve.session", "TenantSession", "read",
     None),
    ("serve.session.read_at", "paxml.serve.session", "TenantSession",
     "read_at", None),
    ("serve.hub.on_graft", "paxml.serve.hub", "SubscriptionHub", "on_graft",
     None),
    ("query.incremental.ContinuousQueryLog.refresh",
     "paxml.query.incremental", "ContinuousQueryLog", "refresh", None),
    ("shard.round", "paxml.shard.coordinator", "_Coordinator", "_round_loop",
     None),
    ("shard.finish", "paxml.shard.coordinator", "_Coordinator", "_finish",
     None),
]

# Modules imported before patching so every ``from ... import`` copy of a
# layer function already exists when the identity scan runs.
_PRELOAD = ("paxml", "paxml.serve.session",
            "paxml.shard.coordinator", "paxml.shard.worker",
            "paxml.shard.framing", "paxml.kernel.checkpoint",
            "paxml.analysis.relevance", "paxml.query.plan")


def unwrapped(module_name: str, attr: str):
    """The unwrapped module function, so benchmark-side checks that call
    paxml (reference keys) are not counted as the layer's work."""
    for owner, name, function in _installed.values():
        if getattr(owner, "__name__", None) == module_name and name == attr:
            return function
    return getattr(importlib.import_module(module_name), attr)


def _patch_everywhere(original: object, wrapped: object) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("paxml"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install() -> None:
    """Wrap every layer in :data:`LAYERS` (idempotent)."""
    for module_name in _PRELOAD:
        importlib.import_module(module_name)
    for name, module_name, class_name, attr, post in LAYERS:
        if name in _installed:
            continue
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        original = getattr(owner, attr)
        wrapped = _wrap(name, original, post)
        if class_name:
            setattr(owner, attr, wrapped)
        else:
            _patch_everywhere(original, wrapped)
        _installed[name] = (owner, attr, original)
    _install_worker_dump()


def _install_worker_dump() -> None:
    """Make forked shard workers write their spans before they exit."""
    from paxml.shard import worker
    original = worker.worker_main
    if getattr(original, "_perfbench", False):
        return

    def traced_worker_main(host, port, shard):
        reset()
        try:
            original(host, port, shard)
        finally:
            directory = os.environ.get("PERFBENCH_SPAN_DIR")
            if directory:
                dump(os.path.join(directory,
                                  f"worker-{shard}-{os.getpid()}.json"))

    traced_worker_main._perfbench = True
    worker.worker_main = traced_worker_main


def snapshot() -> dict:
    """Aggregates since the last :func:`reset`, as plain JSON: per-layer
    stats and counts, time covered by top-level spans, wall time inside
    timed regions, scheduler counter deltas and cache occupancy."""
    now = _perf_counts()
    return {"stats": {name: list(record) for name, record in STATS.items()},
            "counts": dict(COUNTS), "top_s": TOP[0],
            "wall_s": TIMED[0],
            "perf": {key: max(now[key] - _perf_base.get(key, 0), 0)
                     for key in PERF_KEYS},
            "caches": cache_occupancy()}


def dump(path: str) -> None:
    """Write :func:`snapshot` plus the raw span sample to ``path``."""
    payload = snapshot()
    payload["spans"] = RAW
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def merge(into: dict, other: dict) -> dict:
    """Add another process's :func:`snapshot` into ``into``."""
    for name, values in other["stats"].items():
        record = into["stats"].setdefault(name, [0, 0.0, 0.0])
        for index, value in enumerate(values):
            record[index] += value
    for name, value in other["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + value
    return into


def cache_occupancy() -> Dict[str, int]:
    """Entries held by paxml's process-global caches."""
    from paxml.tree import index, store, subsumption
    return {
        "store_rows": store.store_sizes()["rows"],
        "index_entries": (len(index._CHILD_INDEX) + len(index._PROBE_INDEX)
                          + len(index._MARKING_SETS) + len(index._CENSUS)),
        "subsumption_entries": len(subsumption._SIM_CACHE),
    }

