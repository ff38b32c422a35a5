"""The subtree-bits cache and the bitset antichain against the definitions.

``paxml.tree.store``, ``paxml.tree.antichain`` and the evaluator's head
templates are pure acceleration: every cached bitset must equal the
marking set recomputed from the object tree, and every run must reach a
fixpoint equivalent (Definition 2.2, applied by ``is_equivalent``, which
uses no bitset prefilter) to the spec-oracle run.  These tests drive the
cache through hundreds of random graft sequences — clean, batch-wide,
fault-injected, across a checkpoint/resume boundary and around
point-in-time replays — and check every node.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from paxml import perf
from paxml.kernel import RunStatus, resume
from paxml.obs.metrics import REGISTRY
from paxml.query.incremental import (
    IncrementalQueryEvaluator,
    _compile_head_bits,
    _compile_head_key,
)
from paxml.query.matching import (
    enumerate_assignments,
    evaluate_snapshot,
    spec_snapshot,
)
from paxml.query.parser import parse_query
from paxml.query.pattern import instantiate
from paxml.runtime import AsyncRuntime, FaultInjector, RuntimeConfig, RuntimeStatus
from paxml.serve import TenantSession
from paxml.system import materialize
from paxml.system.invocation import graft_trees
from paxml.system.rewriting import RewritingEngine
from paxml.tree import canonical_key, is_equivalent, is_subsumed, label, val
from paxml.tree import store as tree_store
from paxml.tree.antichain import BitsetAntichain
from paxml.tree.index import child_buckets
from paxml.tree.node import Node
from paxml.tree.parser import parse_tree
from paxml.tree.reduction import antichain_insert
from paxml.tree.subsumption import _simulates
from paxml.workloads import (
    chain_edges,
    portal_system,
    random_edges,
    random_tree,
    relation_tree,
    tc_system,
)


@pytest.fixture(autouse=True)
def _clean_perf():
    perf.flags.set_all(True)
    perf.stats.reset()
    yield
    perf.flags.set_all(True)
    perf.stats.reset()


# ----------------------------------------------------------------------
# the definitions as oracles
# ----------------------------------------------------------------------


def oracle_bits(node: Node) -> int:
    """Recompute a subtree's packed marking bitset from the object tree."""
    bits = 0
    for sub in node.iter_nodes():
        bits |= 1 << tree_store.intern_marking(sub.marking)
    return bits


def assert_store_consistent(root: Node) -> None:
    """Every bitset the store answers for ``root`` matches the objects."""
    for node in root.iter_nodes():
        assert tree_store.subtree_bits(node) == oracle_bits(node)


def assert_reduced(node: Node) -> None:
    """No two siblings anywhere are comparable (Definition 2.2 directly)."""
    for parent in node.iter_nodes():
        for i, a in enumerate(parent.children):
            for b in parent.children[i + 1:]:
                assert not _simulates(a, b, {})
                assert not _simulates(b, a, {})


def forest_doc(trees) -> Node:
    """Wrap a forest as one document so forests compare by equivalence."""
    return label("forest", *[tree.copy() for tree in trees])


def path_to(root: Node, node: Node) -> list:
    path = []
    cursor = node
    while cursor is not None:
        path.append(cursor)
        cursor = cursor.parent
    path.reverse()
    assert path[0] is root
    return path


def _positions(path: list) -> list:
    return [parent.children.index(child)
            for parent, child in zip(path, path[1:])]


def _at(root: Node, positions: list) -> Node:
    for position in positions:
        root = root.children[position]
    return root


def _assert_docs_equivalent(system, reference) -> None:
    assert set(system.documents) == set(reference.documents)
    for name, doc in system.documents.items():
        assert is_equivalent(doc.root, reference.documents[name].root), name


def _spec_oracle_run(system) -> None:
    """Materialize with every call-site evaluation on the spec oracle."""
    perf.flags.incremental_matching = False
    try:
        assert materialize(system).terminated
    finally:
        perf.flags.set_all(True)


# ----------------------------------------------------------------------
# random graft sequences: store vs object tree, graft vs definition
# ----------------------------------------------------------------------


def _run_graft_sequence(seed: int) -> Node:
    """One deterministic random graft sequence, checked at every step.

    After each graft the tree must be equivalent to the unreduced
    document the definition gives (the previous tree with the forest
    added under the target's parent), and every cached bitset must equal
    its recomputation.
    """
    tree_store.clear_store()
    rng = random.Random(seed)
    root = random_tree(18, seed)
    tree_store.warm(root)
    for step in range(6):
        targets = [n for n in root.iter_nodes()
                   if n is not root and not n.is_value]
        if not targets:
            break
        target = rng.choice(targets)
        forest = [random_tree(rng.randint(1, 6), seed * 977 + step * 13 + i)
                  for i in range(rng.randint(1, 3))]
        path = path_to(root, target)
        expected = root.copy()
        under = _at(expected, _positions(path[:-1]))
        for tree in forest:
            under.add_child(tree.copy())
        graft_trees(path, forest)
        assert is_equivalent(root, expected)
        assert_store_consistent(root)
    return root


@pytest.mark.parametrize("block", range(5))
def test_store_matches_object_tree_on_100_random_graft_sequences(block):
    """≥100 random graft sequences: every cached bitset equals the object
    tree's, and every graft yields the definition's document."""
    for seed in range(block * 20, block * 20 + 20):
        _run_graft_sequence(seed)


def test_untracked_mutations_heal_at_read_time():
    """``add_child`` outside the graft path stales rows; the next read
    must rebuild them (counted) instead of answering from stale bits."""
    root = random_tree(12, 3)
    tree_store.warm(root)
    inner = next(n for n in root.iter_nodes() if not n.is_value)
    inner.add_child(label("healed", val("fresh")))
    before = perf.stats.store_rebuild_patches
    assert_store_consistent(root)
    assert perf.stats.store_rebuild_patches > before


def test_batch_graft_on_wide_parent_matches_sequential():
    """The ≥32-sibling batch path (BitsetAntichain.from_antichain) must
    insert/evict exactly what one-tree-at-a-time grafts would, and give
    the definition's document."""
    def build():
        # 40 pairwise-incomparable siblings: distinct values.
        return label("wide", *[label("row", val(i)) for i in range(40)])

    grafts = (
        # one duplicate (subsumed), one dominator, one genuinely new
        [label("row", val(7)), label("row", val(3), val(900)), label("row", val(777))],
        [label("row", val(900)), label("row", val(901))],
    )

    results = {}
    for batched in (False, True):
        tree_store.clear_store()
        root = label("doc", build())
        expected = label("doc", build())
        wide = root.children[0]
        tree_store.warm(root)
        for batch in grafts:
            trees = [t.copy() for t in batch]
            expected.children[0].children.extend(t.copy() for t in batch)
            if batched:
                inserted = graft_trees([root, wide, wide.children[0]], trees)
            else:
                inserted = [t for tree in trees for t in graft_trees(
                    [root, wide, wide.children[0]], [tree])]
            assert len(inserted) >= 1
        for child in wide.children:
            assert child.parent is wide
        assert is_equivalent(root, expected)
        assert_reduced(root)
        assert_store_consistent(root)
        results[batched] = sorted(str(canonical_key(c)) for c in wide.children)
    assert results[True] == results[False]


# ----------------------------------------------------------------------
# whole-system runs: clean, fault-injected, flag matrix
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_fault_injected_run_keeps_store_consistent(seed):
    reference = tc_system(random_edges(5, 8, seed=seed))
    _spec_oracle_run(reference)

    tree_store.clear_store()
    subject = tc_system(random_edges(5, 8, seed=seed))
    injector = FaultInjector(seed=seed, drop_rate=0.2, error_rate=0.2,
                             duplicate_rate=0.2, max_attempt=2)
    runtime = AsyncRuntime(subject, injector=injector,
                           config=RuntimeConfig(concurrency=3, seed=seed,
                                                max_attempts=6))
    result = runtime.run()
    assert result.status is RuntimeStatus.TERMINATED
    _assert_docs_equivalent(subject, reference)
    for doc in subject.documents.values():
        assert_store_consistent(doc.root)


def test_flag_matrix_reaches_the_same_fixpoint():
    """Every flag setting that changes how answers are computed reaches a
    fixpoint equivalent to the spec-oracle run's."""
    reference = portal_system(5, materialized_fraction=0.4, seed=11)
    _spec_oracle_run(reference)
    for disabled in ((), ("subsumption_cache",), ("canonical_key_cache",),
                     ("subsumption_cache", "canonical_key_cache")):
        perf.flags.set_all(True)
        for name in disabled:
            setattr(perf.flags, name, False)
        perf.clear_caches()
        system = portal_system(5, materialized_fraction=0.4, seed=11)
        assert materialize(system).terminated
        _assert_docs_equivalent(system, reference)
        for doc in system.documents.values():
            assert_store_consistent(doc.root)


# ----------------------------------------------------------------------
# checkpoint → resume with the matching mode flipped on one side
# ----------------------------------------------------------------------


@pytest.mark.parametrize("incremental_before,incremental_after",
                         [(True, False), (False, True)])
def test_checkpoint_resume_across_matching_flag_flip(
        tmp_path, incremental_before, incremental_after):
    """A bundle written by one matching mode resumes under the other to
    the spec-oracle fixpoint.  The caches are kept across the resume, so
    the restored twins (same uid and version as the checkpointed nodes)
    read rows the checkpointing run wrote."""
    reference = portal_system(6, materialized_fraction=0.3, n_irrelevant=2,
                              seed=3)
    _spec_oracle_run(reference)

    perf.flags.incremental_matching = incremental_before
    perf.clear_caches()
    system = portal_system(6, materialized_fraction=0.3, n_irrelevant=2,
                           seed=3)
    engine = RewritingEngine(system)
    partial = engine.run(max_steps=6)
    assert partial.status is RunStatus.BUDGET_EXHAUSTED
    bundle = str(tmp_path / "flip.jsonl")
    engine.checkpoint(bundle)

    perf.flags.incremental_matching = incremental_after
    resumed = resume(bundle)
    result = resumed.run()
    assert result.status is RunStatus.TERMINATED
    _assert_docs_equivalent(resumed.system, reference)
    for doc in resumed.system.documents.values():
        assert_store_consistent(doc.root)


# ----------------------------------------------------------------------
# point-in-time replays share the caches with the live tree
# ----------------------------------------------------------------------


def test_replayed_reads_leave_the_live_caches_exact():
    """``read_at`` replays copies that reuse the live uids through the
    same caches.  Afterwards every index entry served for a live node
    holds that node's own children, every bitset is exact, and an inject
    streams exactly the delta the definitions give."""
    query = "p{*T} :- d1/r{*T}"
    session = TenantSession("t", tc_system(random_edges(4, 5, seed=11)))

    def drive():
        async def _run():
            while session.has_work():
                await session.run_slice(100_000)
        asyncio.run(_run())

    sub = session.subscribe(query)
    drive()
    before = [parse_tree(text) for text in list(sub.initial) + sub.drain()]
    total = session.read("d1")["grafts"]
    assert total > 1
    # Cold caches (as after an overflow clear): the replayed copies, not
    # the live tree, are the first to fill them.
    perf.clear_caches()
    session.read_at("d1", total // 2)
    assert session.read_at("d1", total)["tree"] == session.read("d1")["tree"]

    assert session.inject("d0", [label("t", label("c0", val(3)),
                                       label("c1", val(99)))]) == 1
    drive()
    delta = [parse_tree(text) for text in sub.drain()]
    assert delta

    environment = session.environment()
    for document in session.system.documents.values():
        for node in document.root.iter_nodes():
            for bucket in child_buckets(node).values():
                for child in bucket:
                    assert any(child is live for live in node.children)
        assert_store_consistent(document.root)
    expected = spec_snapshot(parse_query(query), environment)
    assert is_equivalent(forest_doc(before + delta), forest_doc(expected))
    assert not any(is_subsumed(new, old) for new in delta for old in before)


# ----------------------------------------------------------------------
# BitsetAntichain against the object-set oracle
# ----------------------------------------------------------------------


def _keys(trees):
    return sorted(str(canonical_key(t)) for t in trees)


@pytest.mark.parametrize("seed", range(25))
def test_bitset_antichain_matches_antichain_insert(seed):
    rng = random.Random(seed)
    candidates = [random_tree(rng.randint(1, 7), seed * 131 + i)
                  for i in range(rng.randint(4, 14))]

    oracle: list = []
    index = BitsetAntichain()
    for tree in candidates:
        expected = antichain_insert(oracle, tree.copy())
        got = index.insert(tree)
        assert got == expected
    assert _keys(index) == _keys(oracle)
    assert len(index) == len(oracle)
    # the antichain invariant: pairwise incomparable
    kept = list(index)
    for i, a in enumerate(kept):
        for b in kept[i + 1:]:
            assert not is_subsumed(a, b) and not is_subsumed(b, a)


@pytest.mark.parametrize("seed", range(10))
def test_from_antichain_indexes_without_comparisons(seed):
    """Indexing an existing kept set, then inserting more, must equal one
    sequential antichain_insert run over the concatenation."""
    rng = random.Random(seed)
    first = [random_tree(rng.randint(1, 6), seed * 31 + i) for i in range(6)]
    second = [random_tree(rng.randint(1, 6), seed * 31 + 100 + i)
              for i in range(6)]

    oracle: list = []
    for tree in first + second:
        antichain_insert(oracle, tree.copy())

    kept: list = []
    for tree in first:
        antichain_insert(kept, tree)
    index = BitsetAntichain.from_antichain(kept)
    assert list(index.items()) == kept
    for tree in second:
        index.insert(tree)
    assert _keys(index) == _keys(oracle)


# ----------------------------------------------------------------------
# head-key / head-bits templates against instantiate+canonical_key
# ----------------------------------------------------------------------

_TEMPLATE_RULES = [
    "p{c0{$x}, c1{$y}} :- d/r{t{c0{$x}, c1{$y}}}",
    "out{@l{$v}} :- d/r{t{c0{$v}}, @l{$v}}",
    "wrap{*T} :- d/r{box{*T}}",
    "pair{$x} :- d/r{t{c0{$x}, c1{$x}}}",
]


@pytest.mark.parametrize("rule", _TEMPLATE_RULES)
def test_head_templates_match_the_instantiating_oracle(rule):
    query = parse_query(rule)
    head_key = _compile_head_key(query.head)
    head_bits = _compile_head_bits(query.head)
    root = relation_tree(random_edges(4, 9, seed=5))
    root.add_child(label("fresh", val(1)))
    root.add_child(label("box", label("sub", val(1), val(2))))
    bindings = list(enumerate_assignments(query, {"d": root}))
    assert bindings, rule
    for binding in bindings:
        answer = instantiate(query.head, binding)
        if head_key is not None:
            assert head_key(binding) == canonical_key(answer)
        if head_bits is not None:
            assert head_bits(binding) == tree_store.subtree_bits(answer)


def test_head_key_template_declines_ambiguous_heads():
    """Sibling maximality is only statically vacuous when concrete child
    markings are pairwise distinct; variable markings must decline."""
    ambiguous = parse_query("p{c{$x}, c{$y}} :- d/r{t{c{$x}}, t{c{$y}}}")
    assert _compile_head_key(ambiguous.head) is None
    variable = parse_query("p{@l{$x}, c{$y}} :- d/r{@l{$x}, c{$y}}")
    assert _compile_head_key(variable.head) is None


def test_head_bits_survive_a_store_clear():
    """Interned ids die with clear_store(); the cached const mask must
    re-intern against the new generation, not answer with stale bits."""
    query = parse_query(_TEMPLATE_RULES[0])
    head_bits = _compile_head_bits(query.head)
    documents = {"d": relation_tree(chain_edges(3))}
    binding = next(iter(enumerate_assignments(query, documents)))
    first = head_bits(binding)
    assert first == tree_store.subtree_bits(instantiate(query.head, binding))
    tree_store.clear_store()
    again = head_bits(binding)
    assert again == tree_store.subtree_bits(instantiate(query.head, binding))


# ----------------------------------------------------------------------
# evaluator equivalence and the PR 6 counters
# ----------------------------------------------------------------------


def test_incremental_evaluator_matches_the_spec_oracle():
    """Full evaluation, then a delta after growth: together they must
    give the spec oracle's answer on the grown document."""
    query = parse_query("p{c0{$x}, c1{$y}} :- "
                        "d/r{t{c0{$x}, c1{$z}}, t{c0{$z}, c1{$y}}}")
    root = relation_tree(random_edges(5, 12, seed=7))
    evaluator = IncrementalQueryEvaluator(query)
    forest = list(evaluator.evaluate_delta({"d": root}, site=1))
    assert is_equivalent(forest_doc(forest),
                         forest_doc(spec_snapshot(query, {"d": root})))
    # grow the relation past an existing edge's head and take the delta
    head = root.children[0].children[1].children[0].marking.value
    root.add_child(label("t", label("c0", val(head)), label("c1", val(777))))
    delta = list(evaluator.evaluate_delta({"d": root}, site=1))
    assert forest and delta  # the join is non-empty, no vacuous pass
    assert is_equivalent(forest_doc(forest + delta),
                         forest_doc(spec_snapshot(query, {"d": root})))


def test_const_subpattern_fast_path_fires():
    """Regression for the dormant runtime-const fast path: a join whose
    second atom becomes fully constant once $z is bound must route
    through the hash-consed subpattern test (and count doing so)."""
    query = parse_query("p{c0{$x}, c1{$y}} :- "
                        "d/r{t{c0{$x}, c1{$z}}, t{c0{$z}, c1{$y}}}")
    root = relation_tree(chain_edges(6))
    perf.stats.reset()
    forest = evaluate_snapshot(query, {"d": root})
    assert len(list(forest)) > 0
    assert perf.stats.const_subpattern_tests > 0


def test_pr6_counters_reach_the_metrics_registry():
    """store/bitset/closure counters must flow through paxml.obs.metrics
    (the paxml_perf pull collector) without any extra wiring."""
    # explicit (not via set_all): this test is about the compiled paths
    # even when PAXML_DISABLE_FLAGS disables them by default
    perf.flags.incremental_matching = True
    system = tc_system(chain_edges(4))
    perf.stats.reset()
    assert materialize(system).terminated
    scrape = REGISTRY.collect()
    for counter in ("paxml_perf_store_rebuild_patches",
                    "paxml_perf_store_graft_patches",
                    "paxml_perf_bitset_rejects",
                    "paxml_perf_closure_compilations",
                    "paxml_perf_const_subpattern_tests"):
        assert counter in scrape, counter
    assert perf.stats.closure_compilations > 0
    assert perf.stats.bitset_rejects >= 0
