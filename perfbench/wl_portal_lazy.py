"""portal_lazy: goal queries answered lazily on the jazz portal (§4).

Each unit is one seeded portal (``workloads.portal_system``): CDs whose
ratings are half explicit and half behind ``!GetRating`` calls, next to a
promos branch of ``!FreeMusicDB`` calls no ratings query needs.  A goal
query asks for the rated titles of one singer and is answered with
``materialize(lazy_for=[q], fire_once=True)`` until ``STABILIZED``; the
answer is then read with ``evaluate_snapshot``.  The relevance tracker and
the dormant queue do the work; plan match is small.  Eager evaluation is
off, so this is the mirror of ``tc_batch``.

Supersedes BENCH_pr10 ``lazy_speedup`` and ``fire_once``.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

from common import (MIN_SAMPLES, SETUP_REPEATS, Deadline,
                    fresh_process_state, key_set, peak_rss_mb, summarize,
                    tree)
from tracer import timed

CDS = 60
IRRELEVANT = 800
SINGERS = 7              # portal_system names singers artist-0..artist-6


def _goal(singer: str) -> str:
    return (f'res{{title{{$t}}, rating{{$r}}}} :- portal/directory{{cd{{'
            f'title{{$t}}, singer{{"{singer}"}}, rating{{$r}}}}}}')


def _values(node, name: str) -> List[object]:
    return [child.children[0].marking.value for child in node.children
            if child.is_label and child.marking.name == name]


def _expected(system, singer: str) -> frozenset:
    """(title, stars) of the singer's CDs, read from the generated input:
    singers from the portal directory, stars from ``ratingsdb``."""
    stars: Dict[object, object] = {}
    for entry in system.documents["ratingsdb"].root.children:
        stars[_values(entry, "song")[0]] = _values(entry, "stars")[0]
    titles = [_values(cd, "title")[0]
              for cd in system.documents["portal"].root.children
              if cd.is_label and cd.marking.name == "cd"
              and _values(cd, "singer") == [singer]]
    return key_set(tree("res", ("title", title), ("rating", stars[title]))
                   for title in titles)


class Unit:
    def __init__(self, rng: random.Random):
        self.portal_seed = rng.randrange(2 ** 31)
        self.singer = f"artist-{rng.randrange(SINGERS)}"

    def system(self):
        from paxml.workloads import portal_system
        return portal_system(CDS, materialized_fraction=0.5,
                             n_irrelevant=IRRELEVANT, seed=self.portal_seed)


def setup(seed: int) -> float:
    """Building a portal: the document forest and its call sites."""
    rng = random.Random(seed ^ 0x5E7)
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        Unit(rng).system()
        times.append(time.perf_counter() - started)
    return sorted(times)[len(times) // 2]


def run(seed: int, seconds: float, workdir: str, cap: float,
        traced: bool = False, mark=lambda: None) -> dict:
    from paxml.kernel import RunStatus
    from paxml.query import evaluate_snapshot, parse_query
    from paxml.system import materialize

    setup_s = setup(seed)
    rng = random.Random(seed)
    queries = {f"artist-{i}": parse_query(_goal(f"artist-{i}"))
               for i in range(SINGERS)}
    stable: List[float] = []
    reads: List[float] = []
    steps: List[int] = []
    attempted = failed = 0
    mismatches: List[str] = []
    mark()
    deadline = Deadline(seconds, cap)
    while deadline.more(len(stable), MIN_SAMPLES):
        with deadline.aside():
            fresh_process_state()
            unit = Unit(rng)
        system = unit.system()
        with deadline.aside():
            expected = _expected(system, unit.singer)
        query = queries[unit.singer]
        attempted += 1
        with timed() as region:
            result = materialize(system, lazy_for=[query], fire_once=True)
        stable.append(region.seconds)
        steps.append(result.steps)
        with timed() as region:
            answer = evaluate_snapshot(query, system.environment())
        reads.append(region.seconds)
        with deadline.aside():
            if (result.status is not RunStatus.STABILIZED
                    or key_set(answer) != expected):
                failed += 1
                mismatches.append(f"portal {unit.portal_seed} "
                                  f"{unit.singer}: {result.status.value}")
    goals_per_s = len(stable) / deadline.program_seconds()
    goal = summarize(stable, 1000.0)
    read = summarize(reads, 1000.0)
    return {
        "e2e": {"setup_s": setup_s,
                "latency_p50_ms": goal["p50"], "latency_tail_ms": goal["p75"],
                "op_p50_ms": read["p50"], "op_tail_ms": read["p75"],
                "throughput": goals_per_s,
                "peak_rss_mb": peak_rss_mb()},
        "named": {
            "stable_p50_ms": [goal["p50"], "ms"],
            "stable_tail_ms": [goal["tail"], "ms"],
            "answer_read_p50_ms": [read["p50"], "ms"],
            "goals_per_s": [goals_per_s, "goals/s"],
        },
        "samples": {"stable": goal, "answer_read": read},
        "input": {"portal": f"{CDS} cds (half rated by !GetRating), "
                            f"{IRRELEVANT} !FreeMusicDB promos",
                  "goals": len(stable),
                  "mean_invocations": sum(steps) / len(steps)},
        "attempted": attempted, "failed": failed, "mismatches": mismatches,
        "primary_p50": goal["p50"],
    }
