"""Reduced documents, canonical keys, and least upper bounds.

Section 2.1 of the paper: a document is *reduced* when no sibling subtree is
subsumed by another; every document has a unique reduced version (up to node
isomorphism), computable in PTIME (Proposition 2.1(2,4)).  Reduced documents
act as the canonical representatives of equivalence classes throughout the
library.

Two entry points matter downstream:

* :func:`reduce_in_place` — prunes subsumed siblings *without* rebuilding
  surviving nodes, so service-call bookkeeping (which tracks node identity)
  survives a reduction pass;
* :func:`canonical_key` — a hashable, collision-free structural key of the
  *reduced version* of a tree; equivalent trees get equal keys.  This is the
  workhorse for memoisation in the termination and lazy-evaluation analyses.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .. import perf
from . import store as _store
from .node import Node
from .store import subtree_bits
from .subsumption import is_subsumed


def antichain_insert(keep: List[Node], candidate: Node) -> bool:
    """Insert ``candidate`` into the antichain ``keep``; True iff inserted.

    ``keep`` is maintained as a set of pairwise-incomparable trees.  The
    candidate is dropped when subsumed by (or equivalent to) a kept tree;
    otherwise every kept tree the candidate subsumes is evicted.  Keeping the
    earlier element on equivalence makes the operation deterministic (any
    representative is correct: reduced versions are unique up to
    isomorphism).

    Both directions are filtered in a single pass over ``keep`` by
    packed-bitset containment before any simulation runs: ``candidate ⊑
    other`` needs ``bits(candidate) ⊆ bits(other)`` and vice versa, and
    one union computes both subset tests.  Merging the drop check and the
    eviction sweep into one pass is safe because ``keep`` is an antichain:
    if the candidate is subsumed by some kept tree, no *other* kept tree
    is strictly subsumed by the candidate (it would be subsumed by that
    kept tree too), so an early ``False`` return can never have missed a
    required eviction — survivors are simply discarded.
    """
    cbits = subtree_bits(candidate)
    # The loop below is the hottest code in the library (hundreds of
    # thousands of pairs per benchmark scenario): the store row lookup is
    # inlined — one dict probe, one list index, one compare — with the
    # function call reserved for the rebuild path.
    row_of = _store._UID_ROW.get
    versions = _store._VERSIONS
    all_bits = _store._BITS
    survivors: List[Node] = []
    evicted = False
    rejects = 0
    for other in keep:
        row = row_of(other.uid)
        if row is not None and versions[row] == other.version:
            obits = all_bits[row]
        else:
            obits = subtree_bits(other)
        union = cbits | obits
        if union == obits:  # bits(candidate) ⊆ bits(other)
            if is_subsumed(candidate, other):
                perf.stats.bitset_rejects += rejects
                return False
        else:
            rejects += 1
        if union == cbits:  # bits(other) ⊆ bits(candidate)
            if is_subsumed(other, candidate):
                evicted = True
                continue
        else:
            rejects += 1
        survivors.append(other)
    perf.stats.bitset_rejects += rejects
    if evicted:
        keep[:] = survivors
    keep.append(candidate)
    return True


def _prune_children(node: Node) -> bool:
    """Remove children subsumed by a sibling; True iff anything changed."""
    children = node.children
    if len(children) < 2:
        return False
    keep: List[Node] = []
    for child in children:
        antichain_insert(keep, child)
    if len(keep) != len(children) or any(a is not b for a, b in zip(keep, children)):
        node.children = keep
        return True
    return False


def reduce_in_place(root: Node) -> bool:
    """Reduce the tree rooted at ``root``; True iff the tree changed.

    Children are reduced bottom-up, then subsumed siblings are pruned at
    every node.  Surviving ``Node`` objects keep their identity, which is
    what lets the rewriting engine track service-call nodes across
    reductions.
    """
    changed = False
    # Post-order without recursion (documents can be deep).
    order: List[Node] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    for node in reversed(order):
        if _prune_children(node):
            changed = True
    return changed


def reduced_copy(root: Node) -> Node:
    """A freshly-built reduced version of the tree (the input is untouched)."""
    copy = root.copy()
    reduce_in_place(copy)
    return copy


def is_reduced(root: Node) -> bool:
    """True iff no sibling subtree is subsumed by another anywhere.

    Reuses :func:`antichain_insert` so each unordered sibling pair is
    examined once with early exit, instead of the naive ``i != j`` double
    loop over ordered pairs: a dropped candidate is subsumed by a kept
    sibling, an eviction means a kept sibling is subsumed by the candidate —
    either way the node is not reduced.
    """
    for node in root.iter_nodes():
        children = node.children
        if len(children) < 2:
            continue
        keep: List[Node] = []
        for child in children:
            before = len(keep)
            if not antichain_insert(keep, child) or len(keep) != before + 1:
                return False
    return True


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------

CanonicalKey = Tuple[object, frozenset]


def _key_of_reduced(node: Node, memo: Dict[int, CanonicalKey]) -> CanonicalKey:
    cached = memo.get(id(node))
    if cached is not None:
        return cached
    key: CanonicalKey = (
        node.marking,
        frozenset(_key_of_reduced(child, memo) for child in node.children),
    )
    memo[id(node)] = key
    return key


def canonical_key(root: Node) -> CanonicalKey:
    """Hashable structural key of the reduced version of ``root``.

    Equivalent trees map to equal keys and non-equivalent trees to distinct
    keys: a reduced tree's children are pairwise non-equivalent, so the
    ``frozenset`` of child keys loses no information, and equivalence of
    reduced trees is isomorphism (Proposition 2.1(2)).

    The key is computed *without* building a reduced copy: child keys are
    combined after dropping strictly-subsumed children (equivalent children
    collapse in the frozenset since, inductively, they share a key).  Each
    node memoises its key against its version stamp, so on a grown document
    only the nodes on changed paths recompute — unchanged subtrees answer
    from cache.
    """
    if perf.flags.canonical_key_cache:
        cached = root._ckey
        if cached is not None and root._ckey_version == root.version:
            perf.stats.canonical_key_hits += 1
            return cached  # type: ignore[return-value]
        perf.stats.canonical_key_misses += 1
    children = root.children
    if not children:
        key: CanonicalKey = (root.marking, frozenset())
    elif len(children) == 1:
        key = (root.marking, frozenset((canonical_key(children[0]),)))
    else:
        # Group equivalent children via their keys, then drop every
        # representative strictly subsumed by another (distinct keys mean
        # non-equivalent, so one direction of subsumption suffices).
        reps: Dict[CanonicalKey, Node] = {}
        for child in children:
            reps.setdefault(canonical_key(child), child)
        if len(reps) == 1:
            key = (root.marking, frozenset(reps))
        else:
            nodes = list(reps.items())
            maximal = [
                child_key for child_key, child in nodes
                if not any(other is not child and is_subsumed(child, other)
                           for _k, other in nodes)
            ]
            key = (root.marking, frozenset(maximal))
    if perf.flags.canonical_key_cache:
        root._ckey = key
        root._ckey_version = root.version
    return key


def canonical_key_of_reduced(root: Node) -> CanonicalKey:
    """Like :func:`canonical_key` but assumes ``root`` is already reduced."""
    return _key_of_reduced(root, {})


# ----------------------------------------------------------------------
# Least upper bounds (the ∪ of Section 2.1) and forest reduction
# ----------------------------------------------------------------------


def lub(t1: Node, t2: Node) -> Node:
    """Least upper bound of two trees with the same root marking.

    Built exactly as in the paper: a root carrying the shared marking whose
    children are all children subtrees of both roots, then reduced.  Raises
    :class:`ValueError` on incomparable roots (distinct markings).
    """
    if t1.marking != t2.marking:
        raise ValueError(
            f"trees with distinct root markings ({t1.marking!r} vs {t2.marking!r}) "
            "are incomparable and have no least upper bound"
        )
    merged = Node(t1.marking, [c.copy() for c in t1.children]
                  + [c.copy() for c in t2.children])
    reduce_in_place(merged)
    return merged


def truncated_copy(root: Node, depth: int) -> Node:
    """Copy ``root`` down to ``depth`` edges, dropping deeper structure.

    The result is subsumed by the original tree; it captures everything a
    query pattern of depth ``depth`` can observe, which is what the
    termination analysis keys its configurations on.
    """

    def build(node: Node, remaining: int) -> Node:
        if remaining <= 0 or not node.children:
            return Node(node.marking)
        return Node(node.marking, [build(c, remaining - 1) for c in node.children])

    return build(root, depth)


def truncated_key(root: Node, depth: int) -> CanonicalKey:
    """Canonical key of the depth-``depth`` truncation of ``root``."""
    copy = truncated_copy(root, depth)
    reduce_in_place(copy)
    return _key_of_reduced(copy, {})


def reduce_forest(trees: Sequence[Node]) -> List[Node]:
    """Reduce a forest: reduce each tree, drop trees subsumed by another."""
    keep: List[Node] = []
    for tree in trees:
        antichain_insert(keep, reduced_copy(tree))
    return keep
