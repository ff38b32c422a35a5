"""tc_batch: eager transitive-closure fixpoints, then snapshot queries.

Each unit is one seeded random-graph TC system (the paper's Example 3.2,
``workloads.tc_system``; graphs are redrawn until strongly connected, so
every closure has NODES² pairs) materialized by the sequential engine to
``TERMINATED``, followed by a batch of ``evaluate_snapshot`` queries on
the result: point lookups (successors of one node) and three joins, two
2-hop walks from one node over the closure and a 2-hop join over the base
relation.  Plan match, antichain and subsumption do the work here;
the scheduler, relevance, serve and codec layers do almost none.

Supersedes BENCH_pr6 ``e4`` (datalog TC) and BENCH_pr4 ``e3`` (join
probe).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from common import (MIN_SAMPLES, SETUP_REPEATS, Deadline, chain_edges,
                    closure, fresh_process_state, key_set, pair_tree,
                    peak_rss_mb, strongly_connected_edges, summarize, tree)
from tracer import timed

NODES = 20
EDGES = 60
# Seven point lookups and three joins per system, timed one by one and as
# the system's batch; the gated op latency is the batch's.
POINT_QUERIES = 7

BASE_JOIN = ("base{c0{$x}, c1{$y}} :- "
             "d0/r{t{c0{$x}, c1{$z}}, t{c0{$z}, c1{$y}}}")


def _successors(pairs) -> Dict[int, set]:
    successors: Dict[int, set] = {}
    for a, b in pairs:
        successors.setdefault(a, set()).add(b)
    return successors


class Query:
    """One snapshot query with its reference answers."""

    def __init__(self, kind: str, text: str, expected: frozenset):
        self.kind = kind
        self.text = text
        self.expected = expected


def _point(node: int, closed) -> Query:
    return Query("point", f"succ{{$y}} :- d1/r{{t{{c0{{{node}}}, c1{{$y}}}}}}",
                 key_set(tree("succ", b) for b in closed.get(node, ())))


def _walk(node: int, closed) -> Query:
    text = (f"walk{{$y}} :- d1/r{{t{{c0{{{node}}}, c1{{$z}}}}, "
            f"t{{c0{{$z}}, c1{{$y}}}}}}")
    return Query("join", text, key_set(
        tree("walk", y) for y in {y for z in closed.get(node, ())
                                  for y in closed.get(z, ())}))


def _base_join(edges) -> Query:
    successors = _successors(edges)
    return Query("join", BASE_JOIN, key_set(
        pair_tree("base", x, y) for x, y in {(x, y) for x, z in edges
                                            for y in successors.get(z, ())}))


class Unit:
    """One generated system with its queries and reference answers."""

    def __init__(self, rng: random.Random):
        self.edges = strongly_connected_edges(rng, NODES, EDGES)
        self.pairs = closure(self.edges)
        closed = _successors(self.pairs)
        sources = sorted(closed)
        self.queries = [_point(rng.choice(sources), closed)
                        for _ in range(POINT_QUERIES)]
        self.queries += [_walk(rng.choice(sources), closed),
                         _walk(rng.choice(sources), closed),
                         _base_join(self.edges)]
        rng.shuffle(self.queries)

    def system(self):
        from paxml.workloads import tc_system
        return tc_system(self.edges)

    def expected_d1(self) -> frozenset:
        """Keys of d1's children at the fixpoint: both calls and every
        closure pair."""
        from paxml.tree.node import fun
        return key_set([fun("g"), fun("f")]
                       + [pair_tree("t", a, b) for a, b in self.pairs])


def setup(seed: int) -> float:
    """Cold start: drop the caches, build a system over a chain of NODES
    nodes (the same work whatever the seed) and run it to its fixpoint."""
    from paxml import perf
    from paxml.system import materialize
    from paxml.workloads import tc_system
    rng = random.Random(seed ^ 0x5E7)
    times = []
    for _ in range(SETUP_REPEATS):
        edges = chain_edges(rng, NODES)
        perf.clear_caches()
        started = time.perf_counter()
        materialize(tc_system(edges))
        times.append(time.perf_counter() - started)
    return sorted(times)[len(times) // 2]


def run(seed: int, seconds: float, workdir: str, cap: float,
        traced: bool = False, mark=lambda: None) -> dict:
    from paxml.kernel import RunStatus
    from paxml.query import evaluate_snapshot, parse_query
    from paxml.system import materialize

    setup_s = setup(seed)
    rng = random.Random(seed)
    parsed = {}
    fixpoints: List[float] = []
    batches: List[float] = []
    queries: List[float] = []
    joins: List[float] = []
    attempted = failed = 0
    mismatches: List[str] = []
    mark()
    deadline = Deadline(seconds, cap)
    while deadline.more(len(fixpoints), MIN_SAMPLES):
        with deadline.aside():
            fresh_process_state()
            unit = Unit(rng)
        system = unit.system()
        attempted += 1
        with timed() as region:
            result = materialize(system)
        fixpoints.append(region.seconds)
        with deadline.aside():
            if (result.status is not RunStatus.TERMINATED
                    or key_set(system.documents["d1"].root.children)
                    != unit.expected_d1()):
                failed += 1
                mismatches.append(f"fixpoint of system {attempted}")
        environment = system.environment()
        answers = []
        batch = 0.0
        for query in unit.queries:
            parsed_query = parsed.get(query.text)
            if parsed_query is None:
                parsed_query = parsed[query.text] = parse_query(query.text)
            attempted += 1
            with timed() as region:
                answers.append(evaluate_snapshot(parsed_query, environment))
            queries.append(region.seconds)
            batch += region.seconds
            if query.kind == "join":
                joins.append(region.seconds)
        batches.append(batch)
        with deadline.aside():
            for query, answer in zip(unit.queries, answers):
                if key_set(answer) != query.expected:
                    failed += 1
                    mismatches.append(f"query {query.text!r}")
    pairs_per_s = NODES * NODES * len(fixpoints) / deadline.program_seconds()
    fix = summarize(fixpoints, 1000.0)
    batch = summarize(batches, 1000.0)
    ops = summarize(queries, 1000.0)
    join = summarize(joins, 1000.0)
    return {
        "e2e": {"setup_s": setup_s,
                "latency_p50_ms": fix["p50"], "latency_tail_ms": fix["p75"],
                "op_p50_ms": batch["p50"], "op_tail_ms": batch["p75"],
                "throughput": pairs_per_s,
                "peak_rss_mb": peak_rss_mb()},
        "named": {
            "fixpoint_p50_s": [fix["p50"] / 1000.0, "s"],
            "pairs_per_s": [pairs_per_s, "pairs/s"],
            "query_p50_ms": [ops["p50"], "ms"],
            "query_tail_ms": [ops["tail"], "ms"],
            "join_p50_ms": [join["p50"], "ms"],
            "query_batch_p50_ms": [batch["p50"], "ms"],
        },
        "samples": {"fixpoint": fix, "query_batch": batch, "query": ops,
                    "join": join},
        "input": {"graph": f"{NODES} nodes, {EDGES} random edges, "
                           "strongly connected",
                  "systems": len(fixpoints),
                  "closure_pairs": NODES * NODES,
                  "queries_per_system": POINT_QUERIES + 3},
        "attempted": attempted, "failed": failed, "mismatches": mismatches,
        "primary_p50": fix["p50"],
    }
