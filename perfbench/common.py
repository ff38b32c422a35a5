"""Shared helpers: percentiles, timing loops, memory, stamps, references."""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Sequence, Set, Tuple

Edge = Tuple[int, int]

# Tail percentiles considered, highest first.  The reported tail is the
# highest one with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# The gated tails are all p75: a sample set has at least MIN_SAMPLES
# samples, so p75 always has TAIL_BEYOND beyond it, and the gated
# percentile does not move with the sample count.
GATED_TAIL = 75.0
MIN_SAMPLES = 40
# Set-up is measured this many times per run and the median reported.
SETUP_REPEATS = 7


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (non-empty)."""
    ordered = sorted(values)
    rank = max(int(-(-pct * len(ordered) // 100)), 1)   # ceil, 1-based
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least 10 samples beyond it.

    Below 20 samples no percentile qualifies; the median is reported
    then, and the stamp says so through ``tail_pct``/``samples``.
    """
    for pct in TAIL_LADDER:
        if samples * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            return pct
    return 50.0


def summarize(values: Sequence[float], scale: float = 1.0) -> Dict[str, float]:
    """Median, gated p75 and ladder tail of a sample set, scaled."""
    pct = tail_percentile(len(values))
    return {"p50": percentile(values, 50.0) * scale,
            "p75": percentile(values, GATED_TAIL) * scale,
            "tail": percentile(values, pct) * scale,
            "tail_pct": pct, "samples": len(values)}


def fresh_process_state() -> None:
    """Drop paxml's process-global caches and collect garbage.

    The batch workloads call it between units, outside the timed region,
    as if each unit were its own ``paxml`` invocation: every unit then
    starts from the same cache and heap state, instead of inheriting the
    dead trees of the units before it (whose number depends on how fast
    the machine ran the window so far).  ``serve_batch`` never calls it:
    a server's tenants share the caches.
    """
    import gc
    from paxml import perf
    perf.clear_caches()
    gc.collect()


class Deadline:
    """Keep measuring until ``seconds`` passed and ``minimum`` units ran.

    ``cap`` bounds a run whose minimum sample count takes longer than its
    measuring window (a slow machine), so a run always ends in time.
    Time the benchmark spends on its own side of the window (generating
    inputs, computing references, checking answers) is kept apart with
    :meth:`aside`, so throughput is work done per second of paxml's time.
    """

    def __init__(self, seconds: float, cap: float):
        self.started = time.perf_counter()
        self.seconds = seconds
        self.cap = cap
        self.overhead = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def more(self, have: int, minimum: int) -> bool:
        elapsed = self.elapsed()
        if elapsed >= self.cap:
            return False
        return elapsed < self.seconds or have < minimum

    @contextmanager
    def aside(self):
        """A stretch of benchmark-side work inside the window."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.overhead += time.perf_counter() - started

    def program_seconds(self) -> float:
        """Window so far, less the benchmark-side stretches."""
        return self.elapsed() - self.overhead


def peak_rss_mb(include_children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0     # ru_maxrss is in KiB on Linux


def machine_stamp() -> Dict[str, object]:
    return {"nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "platform": platform.platform()}


def source_commit(root: str) -> str:
    """The commit the checkout was made from, when git metadata exists.

    Benchmark checkouts are usually not git repositories; the stamp then
    says ``unknown`` rather than guessing.
    """
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


# -- inputs and reference answers, computed from the seed --------------------


def closure(edges: Iterable[Edge]) -> Set[Edge]:
    """Transitive closure by a DFS from every source."""
    successors: Dict[int, Set[int]] = {}
    for a, b in edges:
        successors.setdefault(a, set()).add(b)
    pairs: Set[Edge] = set()
    for source in list(successors):
        seen: Set[int] = set()
        stack = list(successors[source])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(successors.get(node, ()))
        pairs.update((source, target) for target in seen)
    return pairs


def key_set(trees: Iterable) -> frozenset:
    """Canonical keys of a forest, one per tree.

    Canonical keys are equal exactly for equivalent trees, which is what
    makes ``p{x, y}`` and ``p{y, x}`` equal, as unordered trees are.  Both
    sides of a check are reduced forests (a reference is built reduced,
    an answer comes out of paxml reduced), so comparing the key sets
    compares the reduced forests.
    """
    import tracer
    canonical_key = tracer.unwrapped("paxml.tree.reduction", "canonical_key")
    return frozenset(canonical_key(tree) for tree in trees)


def tree(label_name: str, *children):
    """A tree from nested ``(label, child, ...)`` tuples and plain values."""
    from paxml.tree.node import label, val
    built = [tree(*child) if isinstance(child, tuple) else val(child)
             for child in children]
    return label(label_name, *built)


def pair_tree(head: str, x, y):
    """``head{c0{x}, c1{y}}`` — one closure pair as an unordered tree."""
    return tree(head, ("c0", x), ("c1", y))


def seeded_edges(rng, nodes: int, edges: int) -> List[Edge]:
    """``edges`` distinct random edges over ``nodes`` nodes."""
    from paxml.workloads import random_edges
    return random_edges(nodes, edges, seed=rng.randrange(2 ** 31))


def strongly_connected_edges(rng, nodes: int, edges: int) -> List[Edge]:
    """Random edges drawn until every node reaches every node.

    The closure then has exactly ``nodes * nodes`` pairs whatever the
    seed, so seeds vary the graph's shape but not the size of its result.
    """
    while True:
        drawn = seeded_edges(rng, nodes, edges)
        if len(closure(drawn)) == nodes * nodes:
            return drawn


def chain_edges(rng, nodes: int) -> List[Edge]:
    """A directed path through ``nodes`` nodes in random order."""
    order = rng.sample(range(nodes), nodes)
    return list(zip(order, order[1:]))
