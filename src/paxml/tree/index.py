"""Inverted marking indexes over live documents (the query compiler's
candidate source).

The matchers in :mod:`paxml.query` repeatedly ask two questions about a
document node: *which children carry marking m?* (constant sibling
patterns, subsumption's candidate pairing) and *which children carry
marking m and contain a given value one or two levels down?* (the probe
side of a sibling join).  This module answers both from per-parent
buckets kept consistent with the versioned tree.

Consistency contract (see the version-stamp comment in
:mod:`paxml.tree.node`):

* every structural *addition* to a node's child list bumps the node's
  version (``add_child`` / the graft path call ``touch``), so an entry
  validated against ``node.version`` always contains **every current
  child** — a stale entry is impossible to read;
* entries hold ``Node`` objects, so they are also validated by the
  identity of the node they were built for: a twin sharing ``(uid,
  version)`` (a point-in-time replay copy, a wire restore) builds its
  own entry instead of handing its children to the live tree;
* equivalence-preserving *pruning* (reduction evicting a subsumed
  sibling) may leave an entry holding a pruned child.  That is sound for
  every consumer here: a pruned child is subsumed by a surviving
  sibling, and both matching and subsumption are invariant under
  document equivalence, so answers derived through the pruned copy are
  themselves subsumed by answers derived through the survivor and vanish
  in forest reduction.  (The graft path nevertheless repairs entries
  eagerly — see :func:`note_graft` — so in the engines' flows entries
  are exact, not merely equivalent.)

Entries are keyed by node uid and bounded crudely, like the persistent
subsumption cache: cleared wholesale on overflow, correct at any size.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .. import perf
from .node import Marking, Node, Value

# uid → (node, version at build, child count at build, marking → children)
_Buckets = Dict[Marking, List[Node]]
_CHILD_INDEX: Dict[int, Tuple[Node, int, int, _Buckets]] = {}
_CHILD_INDEX_MAX = 500_000

# uid → (node, version at build, (p_marking, q_marking) → value → children)
_ProbeMap = Dict[Tuple[Marking, Marking], Dict[Marking, List[Node]]]
_PROBE_INDEX: Dict[int, Tuple[Node, int, _ProbeMap]] = {}
_PROBE_INDEX_MAX = 100_000

_EMPTY: Tuple[Node, ...] = ()


def clear_index() -> None:
    _CHILD_INDEX.clear()
    _PROBE_INDEX.clear()


perf.register_cache(clear_index)


def _build_buckets(node: Node) -> _Buckets:
    buckets: _Buckets = {}
    for child in node.children:
        buckets.setdefault(child.marking, []).append(child)
    return buckets


def child_buckets(node: Node) -> _Buckets:
    """The children of ``node`` grouped by marking, from the live index.

    Validated against ``node`` and its version: any append since the
    entry was built bumped the version, so a returned entry covers every
    current child (see the module docstring for why pruned leftovers are
    sound).
    """
    entry = _CHILD_INDEX.get(node.uid)
    if entry is not None and entry[1] == node.version and entry[0] is node:
        perf.stats.index_hits += 1
        return entry[3]
    perf.stats.index_misses += 1
    buckets = _build_buckets(node)
    if len(_CHILD_INDEX) >= _CHILD_INDEX_MAX:
        _CHILD_INDEX.clear()
    _CHILD_INDEX[node.uid] = (node, node.version, len(node.children), buckets)
    return buckets


def child_bucket(node: Node, marking: Marking) -> Sequence[Node]:
    """Children of ``node`` carrying ``marking`` (possibly empty)."""
    return child_buckets(node).get(marking, _EMPTY)


def note_graft(parent: Node, inserted: Sequence[Node],
               pre_version: int) -> None:
    """Patch ``parent``'s index entry after the graft path appended
    ``inserted`` to its children and ``touch`` moved its version on from
    ``pre_version``.

    Appending to the live buckets is O(inserted).  The entry is patched
    only when it was current for ``parent`` before the touch and its
    child count lines up with a pure append; otherwise (an entry built
    for a twin or an older version, or siblings the antichain insertion
    evicted) it is dropped and the next lookup rebuilds it, which keeps
    entries exact — not merely equivalent — along the graft path.
    Ancestor entries need no treatment: the same ``touch`` bumped their
    versions, so their stale entries can never be read again.
    """
    _PROBE_INDEX.pop(parent.uid, None)
    entry = _CHILD_INDEX.get(parent.uid)
    if entry is None:
        return
    node, version, count, buckets = entry
    if (node is not parent or version != pre_version
            or len(parent.children) != count + len(inserted)):
        del _CHILD_INDEX[parent.uid]
        return
    for child in inserted:
        buckets.setdefault(child.marking, []).append(child)
    _CHILD_INDEX[parent.uid] = (parent, parent.version, len(parent.children),
                                buckets)
    perf.stats.index_graft_patches += 1


# ----------------------------------------------------------------------
# Value probes: the indexed side of a sibling join.
#
# A sibling pattern shaped  p{q{$z}, …}  with p, q constant and $z bound
# admits candidates c only when c carries marking p and has a child d
# with marking q that has a value child equal to the binding of $z — a
# necessary condition of the embedding.  The probe map answers "children
# of n matching (p, q) with value v" in O(answer) once built; building
# is one pass over three levels of n's subtree, memoised against n's
# version.
# ----------------------------------------------------------------------


def probe_bucket(node: Node, p_marking: Marking, q_marking: Marking,
                 value: Marking) -> Sequence[Node]:
    """Children of ``node`` with ``p_marking`` owning a ``q_marking`` child
    that has a value leaf marked ``value``."""
    entry = _PROBE_INDEX.get(node.uid)
    if entry is None or entry[1] != node.version or entry[0] is not node:
        if len(_PROBE_INDEX) >= _PROBE_INDEX_MAX:
            _PROBE_INDEX.clear()
        entry = (node, node.version, {})
        _PROBE_INDEX[node.uid] = entry
    probes = entry[2]
    key = (p_marking, q_marking)
    by_value = probes.get(key)
    if by_value is None:
        by_value = probes[key] = _build_probe(node, p_marking, q_marking)
    perf.stats.probe_lookups += 1
    return by_value.get(value, _EMPTY)


def _build_probe(node: Node, p_marking: Marking,
                 q_marking: Marking) -> Dict[Marking, List[Node]]:
    by_value: Dict[Marking, List[Node]] = {}
    for child in node.children:
        if child.marking != p_marking:
            continue
        seen: set = set()
        for grand in child.children:
            if grand.marking != q_marking:
                continue
            for leaf in grand.children:
                marking = leaf.marking
                if isinstance(marking, Value) and marking not in seen:
                    seen.add(marking)
                    by_value.setdefault(marking, []).append(child)
    return by_value


# ----------------------------------------------------------------------
# Subtree marking sets: the O(1) necessary condition for subsumption.
#
# A subsumption homomorphism maps every node of t1 to a marking-equal
# node of t2, so markings(t1) ⊆ markings(t2) whenever t1 ⊑ t2.  (Only
# the *set* is usable: homomorphisms are non-injective, so counts carry
# no information — a{b, b, b} ⊑ a{b}.)  The sets are cached per
# (uid, version).  The engine's own subsumption prefilter reads the same
# condition as packed ints from paxml.tree.store; this frozenset form is
# the readable public spelling of it.
# ----------------------------------------------------------------------

_MARKING_SETS: Dict[int, Tuple[int, frozenset]] = {}
_MARKING_SETS_MAX = 500_000

perf.register_cache(_MARKING_SETS.clear)


def marking_set(root: Node) -> frozenset:
    """The set of markings occurring in the subtree at ``root``."""
    entry = _MARKING_SETS.get(root.uid)
    if entry is not None and entry[0] == root.version:
        return entry[1]
    markings = frozenset(node.marking for node in root.iter_nodes())
    if len(_MARKING_SETS) >= _MARKING_SETS_MAX:
        _MARKING_SETS.clear()
    _MARKING_SETS[root.uid] = (root.version, markings)
    return markings


# ----------------------------------------------------------------------
# Document census: marking → node count over a whole tree, the planner's
# selectivity estimate.  Cached against the root's version; a graft
# anywhere bumps it, so the census follows growth without hooks.
# ----------------------------------------------------------------------

_CENSUS: Dict[int, Tuple[int, Dict[Marking, int], int]] = {}
_CENSUS_MAX = 10_000

perf.register_cache(_CENSUS.clear)


def marking_census(root: Node) -> Tuple[Dict[Marking, int], int]:
    """``(counts, total)``: occurrences per marking and the tree size."""
    entry = _CENSUS.get(root.uid)
    if entry is not None and entry[0] == root.version:
        return entry[1], entry[2]
    counts: Dict[Marking, int] = {}
    total = 0
    for node in root.iter_nodes():
        total += 1
        counts[node.marking] = counts.get(node.marking, 0) + 1
    if len(_CENSUS) >= _CENSUS_MAX:
        _CENSUS.clear()
    _CENSUS[root.uid] = (root.version, counts, total)
    return counts, total
