"""Tree subsumption (Definition 2.2) and document equivalence.

A document ``(T1, λ1)`` is *subsumed* by ``(T2, λ2)`` when there is a mapping
``h`` from the nodes of T1 to those of T2 that maps root to root, preserves
the parent-child relation and preserves markings.  Note that ``h`` need not
be injective — subsumption is a *simulation*, not an embedding.

Proposition 2.1(3) states subsumption is decidable in PTIME; the algorithm
here is the bottom-up simulation computation sketched in the paper's proof:
``sim(n1, n2)`` holds iff the markings agree and every child of ``n1`` is
simulated by some child of ``n2``.  Memoised over node-identity pairs this
runs in ``O(|T1| · |T2| · max_fanout)``.

On top of the per-call memo sits a *persistent* process-level cache keyed on
``((uid, version), (uid, version))`` pairs.  Uids are never reused and a
node's version changes whenever its subtree's content does, so an entry can
never go stale: re-invoking subsumption over grown documents pays only for
the pairs whose subtrees actually changed.  (Reduction pruning replaces a
tree by an equivalent one without bumping versions; subsumption is invariant
under equivalence, so those entries stay correct too.)
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from .. import perf
from .index import child_buckets
from .node import Node
from .store import subtree_bits

# Persistent directional-simulation cache.  Bounded crudely: cleared when it
# overflows (correct at any size; the bound only caps memory).
_SIM_CACHE: Dict[Tuple[int, int, int, int], bool] = {}
_SIM_CACHE_MAX = 2_000_000


def clear_subsumption_cache() -> None:
    _SIM_CACHE.clear()


perf.register_cache(clear_subsumption_cache)


def _simulates(n1: Node, n2: Node, memo: Dict[Tuple[int, int], bool]) -> bool:
    key = (id(n1), id(n2))
    cached = memo.get(key)
    if cached is not None:
        return cached
    use_global = perf.flags.subsumption_cache
    if use_global:
        gkey = (n1.uid, n1.version, n2.uid, n2.version)
        cached = _SIM_CACHE.get(gkey)
        if cached is not None:
            perf.stats.subsumption_hits += 1
            memo[key] = cached
            return cached
        perf.stats.subsumption_misses += 1
    if n1.marking != n2.marking:
        memo[key] = False
        if use_global:
            _SIM_CACHE[gkey] = False
        return False
    # Claim the pair optimistically before recursing.  Trees are acyclic so
    # no (n1, n2) pair can be revisited along a single recursion path; the
    # pre-store only serves to make the memo safe under re-entrancy.  The
    # optimistic claim stays local to this call's memo — only settled
    # results are published to the persistent cache.
    memo[key] = True
    result = True
    if n1.children:
        if not n2.children:
            result = False
        else:
            # Marking-bucketed candidate pairing: only children of n2 with a
            # compatible marking are ever tried, and the buckets come from
            # the shared per-parent index (built once per (node, version)
            # across *all* subsumption calls, not once per call).
            by_marking = child_buckets(n2)
            # Early reject before any recursion: every child marking of n1
            # must have a non-empty bucket in n2.  (A *count* comparison
            # would be unsound here — simulations are non-injective, so many
            # n1 children may share one n2 child; presence is the strongest
            # sound multiset test.)
            for c1 in n1.children:
                if c1.marking not in by_marking:
                    perf.stats.subsumption_early_rejects += 1
                    result = False
                    break
            if result:
                for c1 in n1.children:
                    if not any(_simulates(c1, c2, memo)
                               for c2 in by_marking[c1.marking]):
                        result = False
                        break
    memo[key] = result
    if use_global:
        if len(_SIM_CACHE) >= _SIM_CACHE_MAX:
            _SIM_CACHE.clear()
        _SIM_CACHE[gkey] = result
    return result


def is_subsumed(t1: Node, t2: Node) -> bool:
    """True iff the tree rooted at ``t1`` is subsumed by the one at ``t2``.

    Entry fast path: a homomorphism maps every node of ``t1`` onto a
    marking-equal node of ``t2``, so the subtree marking set of ``t1``
    must be contained in that of ``t2``.  Over packed bitsets the
    containment test is one int expression (``b1 & ~b2`` is nonzero iff
    some marking of ``t1`` is missing from ``t2``), which rejects most
    all-pairs comparisons between value-distinct answer trees before any
    recursion.
    """
    if t1.marking != t2.marking:
        # Root markings must agree before any homomorphism exists; testing
        # this first keeps mismatched fresh trees (canonical_key's sibling
        # maximality filter produces many) from ever touching the store.
        return False
    if subtree_bits(t1) & ~subtree_bits(t2):
        perf.stats.bitset_rejects += 1
        return False
    return _simulates(t1, t2, {})


def is_equivalent(t1: Node, t2: Node) -> bool:
    """Document equivalence: mutual subsumption (written ``≡`` in the paper).

    Both directions share one memo: entries are keyed on ordered pairs, so
    the directions never collide, and subtrees shared between ``t1`` and
    ``t2`` let the second pass reuse first-pass results.
    """
    memo: Dict[Tuple[int, int], bool] = {}
    return _simulates(t1, t2, memo) and _simulates(t2, t1, memo)


def witness_mapping(t1: Node, t2: Node) -> Dict[int, Node]:
    """An explicit subsumption homomorphism ``h`` as ``id(n1) -> n2``.

    Raises :class:`ValueError` when ``t1 ⊄ t2``.  The mapping picks, for each
    node of ``t1``, the first simulating child of the image of its parent —
    the "trimming" step of the paper's Proposition 2.1 proof.
    """
    memo: Dict[Tuple[int, int], bool] = {}
    if not _simulates(t1, t2, memo):
        raise ValueError("first tree is not subsumed by the second")
    mapping: Dict[int, Node] = {id(t1): t2}
    stack = [(t1, t2)]
    while stack:
        n1, n2 = stack.pop()
        for c1 in n1.children:
            image = next(
                c2 for c2 in n2.children
                if c1.marking == c2.marking and _simulates(c1, c2, memo)
            )
            mapping[id(c1)] = image
            stack.append((c1, image))
    return mapping


# ----------------------------------------------------------------------
# Forests.  A forest φ is subsumed by φ' when every tree of φ is subsumed
# by some tree of φ' (Section 2.1).
# ----------------------------------------------------------------------


def forest_subsumed(phi: Sequence[Node], phi2: Sequence[Node]) -> bool:
    """Forest subsumption, quadratic in the number of trees."""
    return all(any(is_subsumed(t, u) for u in phi2) for t in phi)


def forest_equivalent(phi: Sequence[Node], phi2: Sequence[Node]) -> bool:
    return forest_subsumed(phi, phi2) and forest_subsumed(phi2, phi)
