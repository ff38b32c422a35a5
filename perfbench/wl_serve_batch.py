"""serve_batch: a pool of live tenants driven in-process, round-robin.

The benchmark hosts POOL ``TenantSession`` objects at once (the object
``paxml serve`` keeps per tenant), all in this one process, so they share
paxml's process-global caches as a server's tenants do.  Each tenant is a
transitive-closure system whose ``d0`` starts as a chain of NODES nodes,
with one continuous query over its closure.

The window runs rounds.  In a round every tenant takes one inject of a
fresh edge hung off its chain's head (which derives exactly one answer),
run until the tenant is back at its fixpoint and the delta is drained
from its subscription.  Then one tenant, in turn, is read as a snapshot
and ``at=`` an earlier graft ordinal, suspended to a checkpoint bundle and
resumed, checked, and replaced by a fresh tenant: tenants come and go as
on a server, and each lives POOL rounds.  Every step runs to completion
before the next (closed loop, one client).  Nothing is cleared between
rounds, so cache growth and garbage collection stay in the latencies.
Peak RSS is read after RSS_ROUNDS rounds, so it compares memory at equal
work however many rounds the machine ran in the window.

The serving layers do the work: session inject/run_slice/read, the
subscription hub, the continuous-query log, ``apply_external``, and
checkpoint bundles with their PXG1 graft batches; plan work per op is
small.

Supersedes BENCH_pr7 ``many_tenants``/``fanout`` and BENCH_pr8
``overhead``.
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from typing import List

from common import (MIN_SAMPLES, SETUP_REPEATS, Deadline, chain_edges,
                    closure, key_set, pair_tree, peak_rss_mb, summarize)
from tracer import timed

POOL = 12                # tenants alive at once
NODES = 8                # each tenant starts as a chain over NODES nodes
FRESH_BASE = 1000        # injected target nodes are FRESH_BASE, +1, ...
SLICE = 64               # attempts per slice, the server's default lease
# Peak RSS is read when this many rounds have run, so it compares memory
# at equal work however fast the machine ran the window.
RSS_ROUNDS = MIN_SAMPLES

QUERY = "pair{c0{$x}, c1{$y}} :- d1/r{t{c0{$x}, c1{$y}}}"


def system_text(edges) -> str:
    relation = ", ".join(f"t{{c0{{{a}}}, c1{{{b}}}}}" for a, b in edges)
    return "\n".join([
        "@document d0", f"r{{{relation}}}",
        "@document d1", "r{!g, !f}",
        "@service g", "t{c0{$x}, c1{$y}} :- d0/r{t{c0{$x}, c1{$y}}}",
        "@service f",
        "t{c0{$x}, c1{$y}} :- d1/r{t{c0{$x}, c1{$z}}, t{c0{$z}, c1{$y}}}",
    ]) + "\n"


def pair_text(x, y) -> str:
    from paxml.tree.serializer import to_canonical
    return to_canonical(pair_tree("pair", x, y))


class Tenant:
    """One live tenant, its subscription and what it should hold."""

    def __init__(self, rng: random.Random, name: str):
        self.name = name
        self.edges = chain_edges(rng, NODES)
        # The head has no predecessor, so an edge hung off it derives
        # exactly one answer whatever the seed.
        self.head = self.edges[0][0]
        self.at_fraction = rng.random()
        self.session = None
        self.subscription = None
        self.received = set()

    async def start(self) -> None:
        from paxml.serve.session import TenantSession
        self.session = TenantSession.from_text(self.name,
                                               system_text(self.edges))
        self.subscription = self.session.subscribe(QUERY)
        await settle(self.session)
        self.received = (set(self.subscription.initial)
                         | set(self.subscription.drain()))

    def expected_d1(self) -> frozenset:
        from paxml.tree.node import fun
        return key_set([fun("g"), fun("f")]
                       + [pair_tree("t", a, b)
                          for a, b in closure(self.edges)])

    def expected_answers(self) -> set:
        return {pair_text(a, b) for a, b in closure(self.edges)}


async def settle(session) -> None:
    """Run slices until the tenant is back at its fixpoint."""
    while session.has_work():
        await session.run_slice(SLICE)


async def setup(seed: int) -> tuple:
    """POOL tenants created, subscribed and run to their fixpoints, as a
    server does for its tenants (median of SETUP_REPEATS pools).  The last
    pool is the one the window then drives."""
    rng = random.Random(seed ^ 0x5E7)
    times = []
    for repeat in range(SETUP_REPEATS):
        pool = [Tenant(rng, f"s{repeat}-{index}") for index in range(POOL)]
        started = time.perf_counter()
        for tenant in pool:
            await tenant.start()
        times.append(time.perf_counter() - started)
    return sorted(times)[len(times) // 2], pool


async def _measure(seed: int, seconds: float, workdir: str, cap: float,
                   mark) -> dict:
    from paxml.tree.parser import parse_forest, parse_tree

    setup_s, pool = await setup(seed)
    rng = random.Random(seed)
    bundle = os.path.join(workdir, "tenant.bundle.jsonl")
    injects: List[float] = []
    reads: List[float] = []
    reads_at: List[float] = []
    resumes: List[float] = []
    attempted = failed = 0
    mismatches: List[str] = []
    next_target = FRESH_BASE
    rss_mb = 0.0
    created = len(pool)
    mark()
    deadline = Deadline(seconds, cap)
    while deadline.more(len(resumes), MIN_SAMPLES):
        for tenant in pool:
            with deadline.aside():
                target = next_target
                next_target += 1
                tenant.edges.append((tenant.head, target))
                trees = parse_forest(
                    f"t{{c0{{{tenant.head}}}, c1{{{target}}}}}")
            attempted += 1
            with timed() as region:
                tenant.session.inject("d0", trees)
                await settle(tenant.session)
                delta = tenant.subscription.drain()
            injects.append(region.seconds)
            tenant.received.update(delta)
            if pair_text(tenant.head, target) not in delta:
                failed += 1
                mismatches.append(f"{tenant.name}: no delta for "
                                  f"{tenant.head}->{target}")
        slot = len(resumes) % POOL
        tenant = pool[slot]
        session = tenant.session
        attempted += 3
        with timed() as region:
            snapshot = session.read("d1")
        reads.append(region.seconds)
        ordinal = max(1, int(tenant.at_fraction * session.kernel.productive))
        with timed() as region:
            session.read_at("d1", ordinal)
        reads_at.append(region.seconds)
        with timed():
            session.suspend(bundle)
        with timed() as region:
            session.resume()
        resumes.append(region.seconds)
        with deadline.aside():
            tenant.received.update(tenant.subscription.drain())
            want = tenant.expected_d1()
            if key_set(parse_tree(snapshot["tree"]).children) != want:
                failed += 1
                mismatches.append(f"{tenant.name}: d1 read differs from "
                                  "the closure")
            if key_set(parse_tree(session.read("d1")["tree"]).children) \
                    != want:
                failed += 1
                mismatches.append(f"{tenant.name}: d1 differs after resume")
            if tenant.received != tenant.expected_answers():
                failed += 1
                mismatches.append(f"{tenant.name}: delivered answers "
                                  "differ from the closure")
            replacement = Tenant(rng, f"t{created}")
        created += 1
        await replacement.start()
        pool[slot] = replacement
        if len(resumes) == RSS_ROUNDS:
            rss_mb = peak_rss_mb()
    return {"injects": injects, "reads": reads, "reads_at": reads_at,
            "resumes": resumes, "attempted": attempted, "failed": failed,
            "mismatches": mismatches, "tenants": created,
            "program_s": deadline.program_seconds(), "setup_s": setup_s,
            "rss_mb": rss_mb or peak_rss_mb()}


def run(seed: int, seconds: float, workdir: str, cap: float,
        traced: bool = False, mark=lambda: None) -> dict:
    measured = asyncio.run(_measure(seed, seconds, workdir, cap, mark))
    inject = summarize(measured["injects"], 1000.0)
    read = summarize(measured["reads"], 1000.0)
    read_at = summarize(measured["reads_at"], 1000.0)
    resume = summarize(measured["resumes"], 1000.0)
    injects_per_s = len(measured["injects"]) / measured["program_s"]
    return {
        "e2e": {"setup_s": measured["setup_s"],
                "latency_p50_ms": inject["p50"],
                "latency_tail_ms": inject["p75"],
                "op_p50_ms": resume["p50"], "op_tail_ms": resume["p75"],
                "throughput": injects_per_s,
                "peak_rss_mb": measured["rss_mb"]},
        "named": {
            "inject_delta_p50_ms": [inject["p50"], "ms"],
            "inject_delta_tail_ms": [inject["tail"], "ms"],
            "read_p50_ms": [read["p50"], "ms"],
            "read_tail_ms": [read["tail"], "ms"],
            "read_at_p50_ms": [read_at["p50"], "ms"],
            "resume_p50_ms": [resume["p50"], "ms"],
            "injects_per_s": [injects_per_s, "injects/s"],
        },
        "samples": {"inject_delta": inject, "read": read, "read_at": read_at,
                    "resume": resume},
        "input": {"tenant_graph": f"chain of {NODES} nodes in random order",
                  "pool": POOL, "tenants": measured["tenants"],
                  "peak_rss_after_rounds": RSS_ROUNDS,
                  "loop": "closed, in-process, round-robin over the pool"},
        "attempted": measured["attempted"], "failed": measured["failed"],
        "mismatches": measured["mismatches"],
        "primary_p50": inject["p50"],
    }
