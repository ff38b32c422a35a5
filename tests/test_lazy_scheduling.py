"""Lazy relevance-guided scheduling vs the eager oracle (Section 4).

The contract under test: for every registered query ``q``, a lazy run
(only weakly relevant calls invoked, the rest dormant) ends in a state
where ``q``'s answer forest equals ``q([I])`` from a full eager
materialization — clean, fault-injected, across a checkpoint/resume
cut, and sharded.  Plus the regression that makes laziness *lazy*:
dormant sites are never invoked (graft-log + invocation-count audit),
and the fire-once policy retires only what acyclicity proves complete.
"""

from __future__ import annotations

import asyncio

import pytest

from paxml import perf
from paxml.kernel import resume
from paxml.obs import bus as obs_bus
from paxml.obs import events as obs_events
from paxml.query import evaluate_snapshot, parse_query
from paxml.runtime import AsyncRuntime, FaultInjector, RuntimeConfig
from paxml.serve import TenantSession
from paxml.system import RewritingEngine, materialize
from paxml.system.dependency import dependency_graph
from paxml.workloads import (
    portal_system,
    random_acyclic_system,
    random_edges,
    tc_system,
)

RATING_QUERY = ("res{title{$t}, rating{$r}} :- "
                "portal/directory{cd{title{$t}, rating{$r}}}")
TC_QUERY = "pair{c0{$x}, c1{$y}} :- d1/r{t{c0{$x}, c1{$y}}}"

CASES = (
    [("acyclic", seed) for seed in range(8)]
    + [("tc", seed) for seed in range(6)]
    + [("portal", seed) for seed in range(10)]
)


def build_system(family: str, seed: int):
    if family == "acyclic":
        return random_acyclic_system(2 + seed % 3, seed=seed,
                                     values_per_doc=3)
    if family == "tc":
        return tc_system(random_edges(5, 6 + seed % 4, seed=seed))
    return portal_system(5 + seed % 3, materialized_fraction=0.4,
                         n_irrelevant=3, seed=seed)


def goal_query(family: str, seed: int):
    if family == "acyclic":
        top = (2 + seed % 3) - 1
        return parse_query(f"out{{$x}} :- doc{top}/layer{top}"
                           f"{{item{{w{top}{{$x}}}}}}")
    if family == "tc":
        return parse_query(TC_QUERY)
    return parse_query(RATING_QUERY)


def case_id(case) -> str:
    return f"{case[0]}-{case[1]}"


def answer_keys(query, system):
    return evaluate_snapshot(
        query, {name: doc.root for name, doc in system.documents.items()}
    ).canonical_keys()


def eager_reference(family: str, seed: int):
    system = build_system(family, seed)
    outcome = materialize(system)
    assert outcome.terminated
    return answer_keys(goal_query(family, seed), system)


# ----------------------------------------------------------------------
# lazy == eager on every registered query's answer forest
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_lazy_matches_eager_sequential(case):
    family, seed = case
    reference = eager_reference(family, seed)

    lazy = build_system(family, seed)
    query = goal_query(family, seed)
    result = materialize(lazy, lazy_for=[query])
    assert result.terminated
    assert answer_keys(query, lazy) == reference, (
        f"lazy answer diverged from q([I]) on {family}-{seed}")


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_lazy_matches_eager_async_fault_injected(case):
    family, seed = case
    reference = eager_reference(family, seed)

    lazy = build_system(family, seed)
    query = goal_query(family, seed)
    injector = FaultInjector(seed=seed, drop_rate=0.15, error_rate=0.2,
                             delay_rate=0.15, duplicate_rate=0.15,
                             delay_seconds=0.002, max_attempt=2)
    config = RuntimeConfig(concurrency=6, seed=seed, call_timeout=0.05,
                           max_attempts=5, backoff_base=0.001,
                           backoff_max=0.01, breaker_threshold=10_000)
    result = AsyncRuntime(lazy, config=config, injector=injector,
                          lazy_for=[query]).run()
    assert result.terminated and not result.failures
    assert answer_keys(query, lazy) == reference, (
        f"fault-injected lazy answer diverged on {family}-{seed}")


@pytest.mark.parametrize("case", CASES[::3], ids=case_id)
def test_lazy_matches_eager_across_checkpoint_cut(case, tmp_path):
    family, seed = case
    reference = eager_reference(family, seed)

    lazy = build_system(family, seed)
    query = goal_query(family, seed)
    engine = RewritingEngine(lazy, lazy_for=[query])
    engine.run(max_steps=1 + seed % 3)
    bundle = str(tmp_path / "lazy.ckpt")
    engine.checkpoint(bundle)

    resumed = resume(bundle)
    kernel = resumed.kernel
    # The bundle restores lazy mode itself: dormant bucket + goal set.
    assert [str(q) for q in kernel.lazy_queries] == [str(query)]
    assert kernel.scheduler.dormant_count() == \
        engine.kernel.scheduler.dormant_count()
    result = resumed.run()
    assert result.terminated
    assert answer_keys(query, resumed.system) == reference, (
        f"resumed lazy answer diverged on {family}-{seed}")


@pytest.mark.parametrize("case", [("portal", 1), ("portal", 4),
                                  ("acyclic", 2), ("tc", 3)], ids=case_id)
def test_lazy_matches_eager_sharded(case):
    from paxml.shard import run_sharded

    family, seed = case
    reference = eager_reference(family, seed)
    query = goal_query(family, seed)
    result = run_sharded(build_system(family, seed), 2,
                         lazy_queries=[str(query)])
    assert result.replay_ok and not result.failures
    forest = evaluate_snapshot(
        query, {name: doc.root for name, doc in result.documents.items()})
    assert forest.canonical_keys() == reference, (
        f"sharded lazy answer diverged on {family}-{seed}")


# ----------------------------------------------------------------------
# the regression that makes it lazy: dormant sites are never invoked
# ----------------------------------------------------------------------


def test_dormant_sites_never_invoked():
    system = portal_system(12, materialized_fraction=0.3, n_irrelevant=9,
                           seed=7)
    engine = RewritingEngine(system, lazy_for=[parse_query(RATING_QUERY)])
    engine.kernel.log.retain = True
    result = engine.run()
    assert result.terminated
    # The promos branch reads only musicdb — never needed by a ratings
    # query.  Audit both the graft log and the invocation counters.
    assert all(record.service != "FreeMusicDB"
               for record in engine.kernel.log.records)
    assert "FreeMusicDB" not in engine.kernel.invocations_by_service
    assert engine.kernel.scheduler.dormant_count() == 9


def test_stabilized_not_terminated_with_dormant_remaining():
    system = portal_system(6, materialized_fraction=0.3, n_irrelevant=4,
                           seed=2)
    from paxml.kernel import RunStatus
    result = materialize(system, lazy_for=[parse_query(RATING_QUERY)])
    assert result.status is RunStatus.STABILIZED
    eager = portal_system(6, materialized_fraction=0.3, n_irrelevant=4,
                          seed=2)
    assert materialize(eager).status is RunStatus.TERMINATED


def test_graft_promotes_dormant_site():
    """Call-in-answer laziness: a grafted call's body goals wake a
    dormant site in a document the original goal set never read."""
    from paxml import AXMLSystem

    system = AXMLSystem.build(
        documents={"d": "root{!A}", "m": "h{!B, k{1}}"},
        services={
            # A's answer embeds a call to C…
            "A": "n{!C} :- ",
            # …whose body reads m — making m's dormant !B relevant.
            "C": "z{$v} :- m/h{k{$v}}",
            "B": "k{2} :- ",
        })
    query = parse_query("out{$x} :- d/root{n{z{$x}}}")
    engine = RewritingEngine(system, lazy_for=[query])
    scheduler = engine.kernel.scheduler
    # Seed goal set reads only d: !B sits dormant.
    assert scheduler.dormant_count() == 1
    result = engine.run()
    assert result.terminated
    assert scheduler.dormant_promotions >= 1
    assert scheduler.dormant_count() == 0
    assert engine.kernel.invocations_by_service.get("B", 0) >= 1
    # And B's contribution made it into the answer.
    forest = evaluate_snapshot(
        query, {name: doc.root
                for name, doc in system.documents.items()})
    texts = {key for key in forest.canonical_keys()}
    assert len(texts) == 2  # out{1} and out{2}


# ----------------------------------------------------------------------
# fire-once
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_fire_once_matches_eager_on_acyclic(seed):
    family = "acyclic" if seed % 2 else "portal"
    reference = eager_reference(family, seed)
    query = goal_query(family, seed)

    system = build_system(family, seed)
    result = materialize(system, fire_once=True)
    assert result.terminated
    assert answer_keys(query, system) == reference
    graph = dependency_graph(system)
    if not graph.recursive_functions():
        assert result.steps > 0


def test_fire_once_never_retires_recursive_services():
    system = tc_system([(0, 1), (1, 2), (2, 3)])
    engine = RewritingEngine(system, fire_once=True)
    result = engine.run()
    assert result.terminated
    # f reads d1 which holds !f — recursive, hence never eligible.  g
    # reads only the static d0, so it MAY retire (and soundly so).
    retired = {site[1].marking.name
               for site in engine.kernel.scheduler._retired.values()}
    assert "f" not in retired
    eager = tc_system([(0, 1), (1, 2), (2, 3)])
    materialize(eager)
    assert system.equivalent_to(eager)


def test_fire_once_retired_sites_survive_resume(tmp_path):
    system = portal_system(8, materialized_fraction=0.2, n_irrelevant=3,
                           seed=4)
    engine = RewritingEngine(system, fire_once=True)
    result = engine.run()
    assert result.terminated
    retired = engine.kernel.scheduler.retired_count()
    assert retired > 0
    fired = dict(engine.kernel.invocations_by_service)
    bundle = str(tmp_path / "fire.ckpt")
    engine.checkpoint(bundle)

    resumed = resume(bundle)
    assert resumed.kernel.fire_once
    assert resumed.kernel.scheduler.retired_count() == retired
    outcome = resumed.run()
    assert outcome.terminated
    # Resume must not re-fire retired calls: invocation counts frozen.
    assert dict(resumed.kernel.invocations_by_service) == fired


def test_external_graft_revives_retired_sites():
    from paxml.tree.node import fun, label, val

    system = portal_system(4, materialized_fraction=0.2, n_irrelevant=1,
                           seed=9)
    engine = RewritingEngine(system, fire_once=True)
    engine.run()
    kernel = engine.kernel
    assert kernel.scheduler.retired_count() > 0
    # Outside data invalidates every completeness proof.
    ratings = system.documents["ratingsdb"]
    kernel.apply_external(ratings, ratings.root, [
        label("entry", label("song", val("song-0")),
              label("stars", val("5")))])
    assert kernel.scheduler.retired_count() == 0


# ----------------------------------------------------------------------
# opt-in: without lazy_for / fire_once a run is eager, verbatim
# ----------------------------------------------------------------------


def test_run_without_lazy_for_is_eager_verbatim():
    """The same system run with and without ``lazy_for``/``fire_once``:
    without them nothing is dormant or retired and the run terminates at
    ``[I]``; with them it stabilizes earlier on the same answer."""
    from paxml.kernel import RunStatus

    query = parse_query(RATING_QUERY)

    def build():
        return portal_system(6, materialized_fraction=0.3, n_irrelevant=4,
                             seed=2)

    eager = build()
    engine = RewritingEngine(eager)
    eager_result = engine.run()
    assert eager_result.status is RunStatus.TERMINATED
    assert engine.kernel.relevance_tracker is None
    assert not engine.kernel.fire_once
    assert engine.kernel.scheduler.dormant_count() == 0
    assert engine.kernel.scheduler.retired_count() == 0
    assert materialize(build()).steps == eager_result.steps

    lazy = build()
    result = materialize(lazy, lazy_for=[query], fire_once=True)
    assert result.status is RunStatus.STABILIZED
    assert result.steps < eager_result.steps
    assert answer_keys(query, lazy) == answer_keys(query, eager)


def test_resume_of_eager_bundle_wakes_everything(tmp_path):
    """Bundles cut from the same system with and without ``lazy_for``:
    the eager one resumes with no dormant site and terminates at ``[I]``;
    the lazy one resumes lazy and stabilizes on the same answer."""
    from paxml.kernel import RunStatus

    query = parse_query(RATING_QUERY)

    def cut(name, **lazy):
        system = portal_system(6, materialized_fraction=0.3,
                               n_irrelevant=4, seed=3)
        engine = RewritingEngine(system, **lazy)
        engine.run(max_steps=2)
        bundle = str(tmp_path / name)
        engine.checkpoint(bundle)
        return engine, resume(bundle)

    lazy_engine, lazy_resumed = cut("lazy.ckpt", lazy_for=[query])
    assert lazy_engine.kernel.scheduler.dormant_count() > 0
    assert lazy_resumed.kernel.scheduler.dormant_count() == \
        lazy_engine.kernel.scheduler.dormant_count()
    eager_engine, eager_resumed = cut("eager.ckpt")
    assert eager_engine.kernel.scheduler.dormant_count() == 0
    assert eager_resumed.kernel.scheduler.dormant_count() == 0

    assert eager_resumed.run().status is RunStatus.TERMINATED
    assert lazy_resumed.run().status is RunStatus.STABILIZED
    eager = portal_system(6, materialized_fraction=0.3, n_irrelevant=4,
                          seed=3)
    materialize(eager)
    assert eager_resumed.system.equivalent_to(eager)
    assert answer_keys(query, lazy_resumed.system) == \
        answer_keys(query, eager)


# ----------------------------------------------------------------------
# observability: counters and the relevance_changed event
# ----------------------------------------------------------------------


def test_lazy_counters_and_relevance_event():
    events = []
    obs_bus.subscribe(lambda e: events.append(e),
                      kinds=[obs_events.RELEVANCE_CHANGED])
    obs_bus.enable()
    try:
        before = perf.stats.calls_skipped_unneeded
        system = portal_system(6, materialized_fraction=0.3,
                               n_irrelevant=5, seed=6)
        engine = RewritingEngine(system,
                                 lazy_for=[parse_query(RATING_QUERY)])
        engine.run()
        assert perf.stats.calls_skipped_unneeded > before
        assert engine.kernel.scheduler.skipped_unneeded > 0
    finally:
        obs_bus.disable()
    assert events and events[0].data["reason"] == "seed"
    assert events[0].data["dormant"] == 5


# ----------------------------------------------------------------------
# serve: the tenant's continuous-query set is the goal set
# ----------------------------------------------------------------------


def test_serve_subscribe_wakes_and_unsubscribe_retires():
    async def scenario():
        system = portal_system(8, materialized_fraction=0.3,
                               n_irrelevant=5, seed=3)
        session = TenantSession("lazy-t", system, lazy=True)
        scheduler = session.kernel.scheduler
        # No subscriptions: empty goal set, everything dormant, no
        # speculative work at all.
        assert scheduler.fresh_count() == 0
        assert scheduler.dormant_count() > 0
        assert not session.has_work()

        sub = session.subscribe(RATING_QUERY)
        assert scheduler.fresh_count() > 0
        while session.has_work():
            await session.run_slice(10_000)
        answers = set(sub.initial) | set(sub.drain())

        eager = portal_system(8, materialized_fraction=0.3,
                              n_irrelevant=5, seed=3)
        materialize(eager)
        from paxml.tree.serializer import to_canonical
        query = parse_query(RATING_QUERY)
        reference = {
            to_canonical(tree) for tree in evaluate_snapshot(
                query, {name: doc.root
                        for name, doc in eager.documents.items()}
            ).reduced().trees}
        assert answers == reference
        assert "FreeMusicDB" not in session.kernel.invocations_by_service

        sub.close()
        # Goal set now empty again: surviving sites demote to dormant.
        assert scheduler.fresh_count() == 0
        assert not session.has_work()
        stats = session.stats()
        assert stats["lazy"]["dormant"] == scheduler.dormant_count() > 0

    asyncio.run(scenario())


def test_serve_lazy_survives_suspend_resume(tmp_path):
    async def scenario():
        system = portal_system(6, materialized_fraction=0.3,
                               n_irrelevant=4, seed=8)
        session = TenantSession("sleeper", system, lazy=True)
        sub = session.subscribe(RATING_QUERY)
        await session.run_slice(2)
        bundle = str(tmp_path / "tenant.ckpt")
        session.suspend(bundle)
        session.resume()
        # The resumed kernel reseeds from the hub's live query set.
        assert [str(q) for q in session.kernel.lazy_queries] == \
            [str(parse_query(RATING_QUERY))]
        while session.has_work():
            await session.run_slice(10_000)
        set(sub.drain())
        assert "FreeMusicDB" not in session.kernel.invocations_by_service
        assert session.kernel.scheduler.dormant_count() > 0

    asyncio.run(scenario())
