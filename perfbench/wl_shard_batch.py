"""shard_batch: a multi-document TC system run on two shard workers.

Each unit is one seeded system of independent transitive-closure
components (documents ``d0_i``/``d1_i``, services ``g_i``/``f_i``), run
with ``run_sharded(system, 2, engine="sequential")`` and its default
replay validation.  The merged documents are checked with
``ShardRunResult.equivalent_to`` against a single-process run made
outside the timed region, and against the closure computed here; then
the merged result answers a batch of point queries, one per component,
timed as one op.  BSP rounds,
shard frames, PXG1 batches, replica apply and replay validation do the
work, none of which the other workloads exercise.

Supersedes BENCH_pr9 ``batch`` and ``codec``.
"""

from __future__ import annotations

import os
import random
import time
from typing import List

from common import (MIN_SAMPLES, SETUP_REPEATS, Deadline, chain_edges,
                    closure, fresh_process_state, key_set, pair_tree,
                    peak_rss_mb, seeded_edges, summarize, tree)
from tracer import timed

COMPONENTS = 8
NODES = 6
EDGES = 12
SHARDS = 2


def _services(index: int) -> dict:
    return {
        f"g{index}": (f"t{{c0{{$x}}, c1{{$y}}}} :- "
                      f"d0_{index}/r{{t{{c0{{$x}}, c1{{$y}}}}}}"),
        f"f{index}": (f"t{{c0{{$x}}, c1{{$y}}}} :- d1_{index}/r{{"
                      f"t{{c0{{$x}}, c1{{$z}}}}, t{{c0{{$z}}, c1{{$y}}}}}}"),
    }


class Unit:
    """One multi-document system, its closures and its point queries."""

    def __init__(self, rng: random.Random, components: int = COMPONENTS,
                 edges=None):
        self.edges = [edges(rng, NODES) if edges
                      else seeded_edges(rng, NODES, EDGES)
                      for _ in range(components)]
        self.pairs = [closure(edges) for edges in self.edges]
        self.points = [rng.choice(sorted({a for a, _ in pairs}))
                       for pairs in self.pairs]

    def system(self):
        from paxml.system import AXMLSystem
        from paxml.tree.node import fun, label
        documents, services = {}, {}
        for index, edges in enumerate(self.edges):
            documents[f"d0_{index}"] = label("r", *[pair_tree("t", a, b)
                                                    for a, b in edges])
            documents[f"d1_{index}"] = label("r", fun(f"g{index}"),
                                             fun(f"f{index}"))
            services.update(_services(index))
        return AXMLSystem.build(documents=documents, services=services)

    def closure_ok(self, documents) -> bool:
        from paxml.tree.node import fun
        for index, pairs in enumerate(self.pairs):
            expected = key_set([fun(f"g{index}"), fun(f"f{index}")]
                               + [pair_tree("t", a, b) for a, b in pairs])
            if key_set(documents[f"d1_{index}"].root.children) != expected:
                return False
        return True


def setup(seed: int) -> float:
    """Fixed cost of a sharded run: spawn both workers, ship a system of
    one chain component per shard (the same work whatever the seed), reach
    its fixpoint, validate, tear down."""
    from paxml.shard import run_sharded
    rng = random.Random(seed ^ 0x5E7)
    times = []
    for _ in range(SETUP_REPEATS):
        unit = Unit(rng, components=SHARDS, edges=chain_edges)
        started = time.perf_counter()
        run_sharded(unit.system(), SHARDS, engine="sequential")
        times.append(time.perf_counter() - started)
    return sorted(times)[len(times) // 2]


def run(seed: int, seconds: float, workdir: str, cap: float,
        traced: bool = False, mark=lambda: None) -> dict:
    from paxml.query import evaluate_snapshot, parse_query
    from paxml.shard import run_sharded
    from paxml.system import materialize

    setup_s = setup(seed)
    span_dir = os.path.join(workdir, "spans")
    if traced:
        os.makedirs(span_dir, exist_ok=True)
        os.environ["PERFBENCH_SPAN_DIR"] = span_dir
    rng = random.Random(seed)
    runs: List[float] = []
    queries: List[float] = []
    pairs = rounds = records = batch_bytes = 0
    cpu_max = 0.0
    attempted = failed = 0
    mismatches: List[str] = []
    mark()
    deadline = Deadline(seconds, cap)
    while deadline.more(len(runs), MIN_SAMPLES):
        with deadline.aside():
            fresh_process_state()
            unit = Unit(rng)
            reference = unit.system()
            materialize(reference)
        system = unit.system()
        attempted += 1
        with timed() as region:
            result = run_sharded(system, SHARDS, engine="sequential")
        runs.append(region.seconds)
        pairs += sum(len(closed) for closed in unit.pairs)
        rounds += result.rounds
        records += result.records
        batch_bytes += sum(stats.get("graft_batch_bytes", 0)
                           for stats in result.worker_stats.values())
        cpu_max = max([cpu_max] + list(result.cpu_seconds.values()))
        with deadline.aside():
            if not (result.replay_ok and not result.failures
                    and result.equivalent_to(reference)
                    and unit.closure_ok(result.documents)):
                failed += 1
                mismatches.append(f"sharded run {len(runs)}: replay_ok="
                                  f"{result.replay_ok} "
                                  f"{result.replay_errors}")
        environment = {name: document.root
                       for name, document in result.documents.items()}
        batch = [parse_query(f"succ{{$y}} :- d1_{index}/r{{t{{"
                             f"c0{{{node}}}, c1{{$y}}}}}}")
                 for index, node in enumerate(unit.points)]
        attempted += 1
        with timed() as region:
            answers = [evaluate_snapshot(query, environment)
                       for query in batch]
        queries.append(region.seconds)
        with deadline.aside():
            for index, (node, answer) in enumerate(zip(unit.points,
                                                       answers)):
                expected = key_set(tree("succ", b)
                                   for a, b in unit.pairs[index] if a == node)
                if key_set(answer) != expected:
                    failed += 1
                    mismatches.append(f"merged d1_{index} point {node}")
    pairs_per_s = pairs / deadline.program_seconds()
    fix = summarize(runs, 1000.0)
    ops = summarize(queries, 1000.0)
    result = {
        "e2e": {"setup_s": setup_s,
                "latency_p50_ms": fix["p50"], "latency_tail_ms": fix["p75"],
                "op_p50_ms": ops["p50"], "op_tail_ms": ops["p75"],
                "throughput": pairs_per_s,
                "peak_rss_mb": peak_rss_mb(include_children=True)},
        "named": {
            "fixpoint_p50_s": [fix["p50"] / 1000.0, "s"],
            "pairs_per_s": [pairs_per_s, "pairs/s"],
            "merged_queries_p50_ms": [ops["p50"], "ms"],
        },
        "samples": {"sharded_run": fix, "merged_queries": ops},
        "input": {"system": f"{COMPONENTS} TC components of {NODES} nodes, "
                            f"{EDGES} random edges", "shards": SHARDS,
                  "runs": len(runs), "replay_validation": True},
        "extra": {"shard.rounds": rounds, "shard.records_shipped": records,
                  "shard.batch_bytes": batch_bytes,
                  "shard.worker_cpu_max_s": cpu_max},
        "attempted": attempted, "failed": failed, "mismatches": mismatches,
        "primary_p50": fix["p50"],
    }
    if traced:
        result["worker_span_files"] = [os.path.join(span_dir, name)
                                       for name in os.listdir(span_dir)]
    return result
