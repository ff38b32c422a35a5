"""The compiled query planner against the spec oracle.

The spec oracle :func:`paxml.query.matching.spec_snapshot` (the naive
backtracking join, recomputed from scratch) is retained precisely to
serve as the reference here: on randomized systems and documents the
planned evaluation (selectivity-ordered siblings, constant subpattern
hash-consing, indexed candidates, undo-log bindings, pushed inequalities)
must produce the same *reduced forests* for full and delta evaluation —
directly, through whole-system materialization, and through the
concurrent runtime under fault injection.  Whole-system references come
from runs with ``perf.flags.incremental_matching`` off, where every
call-site evaluation goes through the spec oracle.

Reduced forests (not raw assignment lists) are the right equality: the
planner may enumerate embeddings in a different order and through index
entries holding pruned-but-subsumed leftovers, all of which collapses
under forest reduction — the paper's notion of "same answer".
"""

from __future__ import annotations

from typing import Tuple

import pytest

from paxml import perf
from paxml.cli import main as cli_main
from paxml.query import compile_query, describe_plan, parse_query
from paxml.query.incremental import IncrementalQueryEvaluator
from paxml.query.matching import (
    enumerate_assignments,
    evaluate_snapshot,
    spec_snapshot,
)
from paxml.query.pattern import RegexSpec, pattern_to_text
from paxml.query.plan import _selectivity_rank
from paxml.query.variables import TreeVar, ValueVar
from paxml.runtime import AsyncRuntime, FaultInjector, RuntimeConfig, RuntimeStatus
from paxml.system import materialize
from paxml.system.invocation import graft_answers, find_path
from paxml.tree import (
    Forest,
    child_bucket,
    child_buckets,
    is_subsumed,
    label,
    marking_set,
    parse_tree,
    probe_bucket,
    val,
)
from paxml.tree.node import Label, Value
from paxml.tree.reduction import reduce_forest
from paxml.workloads import (
    chain_edges,
    portal_system,
    random_acyclic_system,
    random_edges,
    random_tree,
    relation_tree,
    tc_system,
)

JOIN2 = "p{c0{$x}, c1{$y}} :- d/r{t{c0{$x}, c1{$z}}, t{c0{$z}, c1{$y}}}"


@pytest.fixture(autouse=True)
def _restore_perf_flags():
    """Each test may flip engine flags; leave the process as it found it."""
    yield
    perf.flags.set_all(True)
    perf.clear_caches()
    perf.stats.reset()


def _oracle_mode(on: bool) -> None:
    """Spec-oracle runs (``incremental_matching`` off) or the default."""
    perf.flags.set_all(True)
    perf.flags.incremental_matching = not on
    perf.clear_caches()
    perf.stats.reset()


def _both(query, documents) -> Tuple[Forest, Forest]:
    """(spec oracle, planned) snapshot results on the same documents."""
    _oracle_mode(False)
    return spec_snapshot(query, documents), evaluate_snapshot(query, documents)


# ----------------------------------------------------------------------
# property: planned ≡ spec oracle, full evaluation
# ----------------------------------------------------------------------

QUERIES = [
    JOIN2,
    "out{$x} :- d/@r{t{c0{$x}}}",
    "pair{$x, *T} :- d/r{t{c0{$x}, c1{*T}}}",
    "p{@l} :- d/r{@l{c0}}",
    "p{c0{$x}, c1{$y}} :- d/r{t{c0{$x}, c1{$y}}}, $x != $y",
]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("rule", QUERIES, ids=lambda r: r.split(" :- ")[0])
def test_planned_equals_naive_on_random_relations(rule, seed):
    query = parse_query(rule)
    document = relation_tree(random_edges(6 + seed % 5, 10 + seed, seed=seed))
    for extra in range(seed % 3):
        document.add_child(random_tree(5 + extra, seed=seed * 7 + extra))
    documents = {"d": document}

    spec, planned = _both(query, documents)
    assert planned.equivalent_to(spec)


@pytest.mark.parametrize("seed", range(8))
def test_planned_equals_naive_on_random_trees(seed):
    query = parse_query("out{@l{$v}} :- d/@r{@l{$v}}")
    documents = {"d": random_tree(30 + seed * 5, seed=seed, label_pool=3)}
    spec, planned = _both(query, documents)
    assert planned.equivalent_to(spec)


# ----------------------------------------------------------------------
# property: planned deltas ≡ spec oracle over growing documents
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_planned_delta_equals_naive_delta(seed):
    """After every batch the reduced union of all deltas delivered so far
    equals the spec oracle's from-scratch result on the current document."""
    edges = random_edges(6, 24 + seed, seed=seed)
    query = parse_query(JOIN2)
    _oracle_mode(False)
    document = relation_tree(edges[:12])
    evaluator = IncrementalQueryEvaluator(query)
    accumulated = []
    for batch in range(4):
        for a, b in edges[12 + batch * 3:12 + (batch + 1) * 3]:
            document.add_child(
                label("t", label("c0", val(a)), label("c1", val(b))))
        accumulated.extend(
            evaluator.evaluate_delta({"d": document}, site="site"))
        expected = spec_snapshot(query, {"d": document})
        assert Forest(reduce_forest(accumulated)).equivalent_to(expected)
    assert perf.stats.delta_evaluations == 3


# ----------------------------------------------------------------------
# property: planned ≡ spec oracle through whole-system materialization
# ----------------------------------------------------------------------

SYSTEM_CASES = (
    [("acyclic", seed) for seed in range(6)]
    + [("tc", seed) for seed in range(6)]
    + [("portal", seed) for seed in range(6)]
)


def _build_system(family: str, seed: int):
    if family == "acyclic":
        return random_acyclic_system(2 + seed % 3, seed=seed, values_per_doc=3)
    if family == "tc":
        return tc_system(random_edges(5, 6 + seed % 4, seed=seed))
    return portal_system(4 + seed % 3, materialized_fraction=0.4,
                         n_irrelevant=2, seed=seed)


@pytest.mark.parametrize("case", SYSTEM_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_materialized_limits_agree(case):
    family, seed = case
    _oracle_mode(True)
    spec_system = _build_system(family, seed)
    assert materialize(spec_system).terminated

    _oracle_mode(False)
    planned_system = _build_system(family, seed)
    assert materialize(planned_system).terminated
    assert planned_system.equivalent_to(spec_system)


FAULT_CASES = [("acyclic", 3), ("tc", 2), ("tc", 5), ("portal", 1)]


@pytest.mark.parametrize("case", FAULT_CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_planned_limit_survives_fault_injection(case):
    """The runtime oracle: planner + injected faults ≡ spec sequential."""
    family, seed = case
    _oracle_mode(True)
    spec_system = _build_system(family, seed)
    assert materialize(spec_system).terminated

    _oracle_mode(False)
    planned_system = _build_system(family, seed)
    injector = FaultInjector(seed=seed, drop_rate=0.15, error_rate=0.2,
                             delay_rate=0.15, duplicate_rate=0.15,
                             delay_seconds=0.002, max_attempt=2)
    config = RuntimeConfig(concurrency=6, seed=seed, call_timeout=0.05,
                           max_attempts=5, backoff_base=0.001,
                           backoff_max=0.01, breaker_threshold=10_000)
    result = AsyncRuntime(planned_system, config=config,
                          injector=injector).run()
    assert result.status is RuntimeStatus.TERMINATED
    assert not result.failures
    assert planned_system.equivalent_to(spec_system)


# ----------------------------------------------------------------------
# compiler unit tests
# ----------------------------------------------------------------------


def test_sibling_order_puts_constants_before_variables():
    query = parse_query(
        "h{$v} :- d/r{*T, @l{x}, c{$v}, k{a{b}}, #f{y}, [a.b]{z}}")
    root = compile_query(query).atoms[0].root
    ranks = [_selectivity_rank(child)[0] for child in root.children]
    assert ranks == sorted(ranks), "children not in selectivity order"
    # Constant subpatterns lead, the tree variable trails.
    assert root.children[0].const_tree is not None
    assert isinstance(root.children[-1].spec, TreeVar)
    specs = [child.spec for child in root.children]
    assert any(isinstance(s, RegexSpec) for s in specs)
    # The constant-rooted-but-variable-bearing sibling c{$v} sorts after
    # the fully constant k{a{b}} and before the regex and variable specs.
    assert isinstance(root.children[1].spec, Label)
    assert root.children[1].const_tree is None


def test_constant_sibling_dedup_keeps_the_antichain():
    # a{b{c}} subsumes both duplicates and the bare a{b}; one conjunct stays.
    query = parse_query("h{x} :- d/r{a{b{c}}, a{b{c}}, a{b}, q{$v}}")
    root = compile_query(query).atoms[0].root
    consts = [c for c in root.children if c.const_tree is not None]
    assert len(consts) == 1
    assert pattern_to_text(consts[0].to_pattern()) == "a{b{c}}"
    # Dropping dominated conjuncts must not change answers.
    document = parse_tree('r{a{b{c}}, q{"1"}}')
    spec, planned = _both(query, {"d": document})
    assert planned.equivalent_to(spec)
    assert len(planned) == 1


def test_inequalities_compiled_to_binding_sites():
    query = parse_query(
        'h{$x} :- d/r{a{$x}, b{$y}, c{$z}}, $x != $y, $y != "3"')
    plan = compile_query(query)
    by_var = {str(v): [str(o) for o in others]
              for v, others in plan.ineq_by_var.items()}
    assert by_var["$x"] == ["$y"]
    assert set(by_var["$y"]) == {"$x", '"3"'}
    assert "$z" not in by_var
    document = parse_tree('r{a{"1"}, a{"2"}, b{"1"}, b{"3"}, c{"9"}}')
    spec, planned = _both(query, {"d": document})
    assert planned.equivalent_to(spec)


def test_always_false_inequality_short_circuits():
    query = parse_query('h{x} :- d/r{a}, "1" != "1"')
    assert compile_query(query).always_false
    _oracle_mode(False)
    assert enumerate_assignments(query, {"d": parse_tree("r{a}")}) == []


def test_join2_uses_the_value_probe():
    query = parse_query(JOIN2)
    document = relation_tree(chain_edges(8))
    _oracle_mode(False)
    planned = evaluate_snapshot(query, {"d": document})
    assert perf.stats.probe_lookups > 0
    assert len(planned) == 7  # chain of 8 edges has 7 length-2 paths


# ----------------------------------------------------------------------
# index unit tests
# ----------------------------------------------------------------------


def test_child_buckets_follow_appends():
    _oracle_mode(False)
    tree = parse_tree("r{a, a, b}")
    assert len(child_bucket(tree, Label("a"))) == 2
    tree.add_child(label("a"))
    assert len(child_bucket(tree, Label("a"))) == 3  # version bump invalidated
    assert child_bucket(tree, Label("zzz")) == ()


def test_probe_bucket_matches_linear_scan():
    for seed in range(6):
        tree = relation_tree(random_edges(4, 12, seed=seed))
        tree.add_child(random_tree(8, seed=seed))
        _oracle_mode(False)
        for value in {leaf.marking for node in tree.iter_nodes()
                      for leaf in node.children
                      if isinstance(leaf.marking, Value)}:
            indexed = probe_bucket(tree, Label("t"), Label("c0"), value)
            # The definition: children t owning a c0 child with leaf value.
            scanned = [
                child for child in tree.children
                if child.marking == Label("t") and any(
                    grand.marking == Label("c0") and any(
                        leaf.marking == value for leaf in grand.children)
                    for grand in child.children)]
            assert list(indexed) == scanned


def test_graft_path_patches_the_index_in_place():
    _oracle_mode(False)
    system = tc_system(chain_edges(4))
    document = system.documents["d1"]
    # Warm the parent's bucket entry, then graft through the real path.
    child_buckets(document.root)
    call = next(n for n in document.root.iter_nodes() if n.is_function)
    path = find_path(document.root, call)
    before = perf.stats.index_graft_patches
    inserted = graft_answers(
        path, Forest([label("t", label("c0", val(9)), label("c1", val(9)))]))
    assert inserted
    assert perf.stats.index_graft_patches == before + 1
    # The patched entry serves the post-graft child set.
    assert inserted[0] in child_bucket(document.root, inserted[0].marking)


def test_marking_set_reject_is_sound_for_non_injective_simulations():
    _oracle_mode(False)
    # a{b, b, b} ⊑ a{b}: counts must not matter, only marking presence.
    assert is_subsumed(parse_tree("a{b, b, b}"), parse_tree("a{b}"))
    assert marking_set(parse_tree("a{b{c}}")) == {
        Label("a"), Label("b"), Label("c")}
    # The entry reject is the packed-bitset subset test.
    before = perf.stats.bitset_rejects
    assert not is_subsumed(parse_tree("a{x}"), parse_tree("a{y}"))
    assert perf.stats.bitset_rejects > before
    # Contained marking sets pass the entry test; the simulation's bucket
    # reject (a child marking with no counterpart one level down) fires.
    before = perf.stats.subsumption_early_rejects
    assert not is_subsumed(parse_tree("a{b{c}}"), parse_tree("a{b{d}, c}"))
    assert perf.stats.subsumption_early_rejects > before


# ----------------------------------------------------------------------
# oracle mode and CLI
# ----------------------------------------------------------------------


def test_flag_off_routes_through_the_naive_matcher():
    """An oracle-mode materialization executes no plan at all."""
    for family in ("acyclic", "tc", "portal"):
        _oracle_mode(True)
        assert materialize(_build_system(family, 1)).terminated
        assert perf.stats.full_evaluations > 0
        assert perf.stats.planned_evaluations == 0
        assert perf.stats.planned_delta_evaluations == 0
        _oracle_mode(False)
        assert materialize(_build_system(family, 1)).terminated
        assert perf.stats.planned_evaluations > 0


def test_describe_plan_mentions_order_and_probe():
    text = describe_plan(parse_query(JOIN2),
                         {"d": relation_tree(chain_edges(3))})
    assert "join order" in text
    assert "probe" in text


def test_cli_plan_subcommand(capsys):
    path = "examples/systems/transitive_closure.axml"
    assert cli_main(["plan", path]) == 0
    out = capsys.readouterr().out
    assert "service !f" in out and "join order" in out
    assert cli_main(["plan", path, JOIN2.replace("d/", "d1/")]) == 0
    assert "rule:" in capsys.readouterr().out


def test_cli_explain_prints_plan_order(capsys):
    path = "examples/systems/transitive_closure.axml"
    assert cli_main(["explain", path]) == 0
    out = capsys.readouterr().out
    assert "plan !f:" in out and "plan !g:" in out
