"""Packed subtree marking bitsets, cached per ``(uid, version)``.

Subsumption (Definition 2.2) is a marking-preserving root-to-root
homomorphism, so ``markings(t1) ⊆ markings(t2)`` is necessary for
``t1 ⊑ t2``.  This module caches that marking set as one int per node —
bit ``1 << mid`` set for every interned marking id ``mid`` occurring in
the subtree — so the subset test is ``b1 & ~b2 == 0``.  Homomorphisms
are non-injective, so only the *set* carries information, never counts.

Rows are keyed by node uid and hold only ints, in parallel lists:

* ``_VERSIONS`` — the node's version stamp when the row was written;
* ``_BITS``     — the packed subtree marking bitset.

Consistency contract (the clock every cache in :mod:`paxml.perf` uses):
a row answers for a node iff ``_VERSIONS[row] == node.version``.
Structural appends bump versions to the root (``Node.touch``), so a stale
row can never be read as current.  Equivalence-preserving pruning
(reduction, antichain eviction) does not bump versions, and the subtree
marking set is invariant under document equivalence (a pruned subtree's
markings all occur in its subsuming sibling), so a row stays exact
through pruning.  Distinct node objects sharing ``(uid, version)`` — wire
restores, checkpoint resumes, point-in-time replays — have equivalent
subtrees, so either twin's row answers for both: the same aliasing
argument the persistent subsumption cache relies on.

Maintenance is incremental along the engines' single mutation choke
point: :func:`note_graft` (called by ``graft_under``) OR-merges the
inserted bits into the grafted parent and its ancestors, validated
against their captured pre-``touch`` versions.  Mutations outside the
graft path (e.g. ``add_child``) heal at read time: a stale row triggers
a subtree rebuild that reuses every descendant row whose version still
matches (``store_rebuild_patches`` counts these).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .. import perf
from .node import Marking, Node

# ----------------------------------------------------------------------
# Marking interning.  Ids are monotone and process-wide; the id is the
# bit position in packed subtree bitsets, so clearing the intern table
# and the rows must happen together (see clear_store).
# ----------------------------------------------------------------------

_MARKING_IDS: Dict[Marking, int] = {}
_MARKINGS: List[Marking] = []


def intern_marking(marking: Marking) -> int:
    """The process-wide small-int id of ``marking`` (stable until clear)."""
    mid = _MARKING_IDS.get(marking)
    if mid is None:
        mid = len(_MARKINGS)
        _MARKING_IDS[marking] = mid
        _MARKINGS.append(marking)
    return mid


# ----------------------------------------------------------------------
# The rows.  Kept module-level (not on a class instance) so the hot
# readers — including the loop inlined in reduction.antichain_insert —
# touch plain globals, not attribute chains.
# ----------------------------------------------------------------------

_UID_ROW: Dict[int, int] = {}
_VERSIONS: List[int] = []
_BITS: List[int] = []

_ROWS_MAX = 2_000_000


# Bumped on every wholesale clear; lets callers that cache interned ids
# (e.g. the evaluator's head-bits templates) notice their ids went stale.
_GENERATION = [0]


def generation() -> int:
    return _GENERATION[0]


def clear_store() -> None:
    """Drop every row *and* the intern table (ids are bit positions)."""
    _GENERATION[0] += 1
    _UID_ROW.clear()
    _VERSIONS.clear()
    _BITS.clear()
    _MARKING_IDS.clear()
    _MARKINGS.clear()


perf.register_cache(clear_store)


def store_sizes() -> Dict[str, int]:
    """Live sizes, for the CLI and the metrics registry."""
    return {
        "rows": len(_BITS),
        "interned_markings": len(_MARKINGS),
    }


# ----------------------------------------------------------------------
# Building and reading.
# ----------------------------------------------------------------------


def _build(root: Node) -> int:
    """(Re)write the rows of ``root``'s subtree; returns ``root``'s row.

    Iterative post-order: every descendant whose row still matches its
    version is reused as is; a node's bits are written only after all its
    children hold current rows, and its version last, so a half-built
    row never validates.
    """
    perf.stats.store_rebuild_patches += 1
    if len(_BITS) >= _ROWS_MAX:
        clear_store()
    stack: List[Tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        row = _UID_ROW.get(node.uid)
        if not expanded:
            if row is None or _VERSIONS[row] != node.version:
                stack.append((node, True))
                stack.extend((child, False) for child in node.children)
            continue
        bits = 1 << intern_marking(node.marking)
        for child in node.children:
            bits |= _BITS[_UID_ROW[child.uid]]
        if row is None:
            row = _UID_ROW[node.uid] = len(_BITS)
            _BITS.append(bits)
            _VERSIONS.append(node.version)
        else:
            _BITS[row] = bits
            _VERSIONS[row] = node.version
    return _UID_ROW[root.uid]


def subtree_bits(node: Node) -> int:
    """The packed marking bitset of ``node``'s subtree.

    The fast path is one dict probe, one list index and a compare;
    a missing or stale row is rebuilt.
    """
    row = _UID_ROW.get(node.uid)
    if row is not None and _VERSIONS[row] == node.version:
        return _BITS[row]
    return _BITS[_build(node)]


def warm(root: Node) -> None:
    """Write current rows for a whole tree (idempotent)."""
    subtree_bits(root)


def note_graft(path: List[Node], inserted: Sequence[Node],
               pre_versions: Sequence[int]) -> None:
    """Patch the rows after the graft path appended ``inserted`` under
    ``path[-1]`` and ``touch`` bumped versions along ``path``.

    ``path`` is the root-to-parent path *inclusive of the parent* that
    gained children (the graft primitive's ``parent_path``), and
    ``pre_versions`` are the path nodes' versions captured *before* the
    touch.  A row is patched only when it was current against the
    pre-touch state; otherwise an earlier untracked mutation (or a twin
    at another version) left it stale, and stamping it current would
    launder wrong bits — such rows heal at the next read instead.

    Evictions the graft caused (the antichain insertion under the parent,
    ``_propagate_growth`` above it) drop subtrees subsumed by a survivor,
    whose markings are therefore still present: OR-merging the inserted
    bits keeps every patched row exact.
    """
    ins_bits = 0
    for tree in inserted:
        ins_bits |= subtree_bits(tree)
    parent = path[-1]
    prow = _UID_ROW.get(parent.uid)
    if prow is None:
        # Bootstrap: the first graft into a document the store has never
        # seen writes the whole tree (post-touch, so the build already
        # includes this graft); every later graft patches in place.
        warm(path[0])
        return
    if _VERSIONS[prow] != pre_versions[-1]:
        return  # ancestors would merge unverified bits; heal lazily
    _BITS[prow] |= ins_bits
    _VERSIONS[prow] = parent.version
    for depth in range(len(path) - 2, -1, -1):
        node = path[depth]
        row = _UID_ROW.get(node.uid)
        if row is not None and _VERSIONS[row] == pre_versions[depth]:
            _BITS[row] |= ins_bits
            _VERSIONS[row] = node.version
    perf.stats.store_graft_patches += 1
