"""An inverted-index antichain over packed marking bitsets.

:func:`paxml.tree.reduction.antichain_insert` is linear in the kept set:
every insert compares the candidate's subtree bitset against every kept
tree.  For the incremental evaluator's per-site result sets — thousands
of pairwise-incomparable answer trees, inserted one by one — that scan
is the single hottest loop in the library, even with the comparisons
reduced to two int operations each.

This class replaces the scan with two posting lists over bit positions
(interned marking ids, :mod:`paxml.tree.store`):

* ``postings[b]``  — indexes of every kept tree whose subtree contains
  marking bit ``b``;
* ``anchored[b]``  — indexes of the kept trees *anchored* at ``b``: each
  tree is anchored at the rarest of its bits at insertion time, so each
  index appears in exactly one anchor list.

An insert then touches only the trees that could possibly be comparable:

* a kept tree subsuming the candidate must contain **all** candidate
  bits — in particular the candidate's rarest bit, so scanning
  ``postings[rarest]`` is complete for the drop direction;
* a kept tree subsumed by the candidate has all **its** bits among the
  candidate's — in particular its anchor bit, so scanning
  ``anchored[b]`` for the candidate's bits is complete for the eviction
  direction, and visits each potential evictee once.

On answer-tree workloads the rare bits are data values, so both scans
are a handful of entries where the flat loop visited the entire set.
Degenerate workloads (every tree over the same few markings) degrade
back to the linear scan — never below it.

Kept trees must not be structurally mutated after insertion (the
posting lists snapshot their bitsets); the evaluator's answer trees are
frozen by construction — grafting copies them, antichain membership is
read-only.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from .node import Node
from .store import subtree_bits
from .subsumption import is_subsumed


def _bit_indexes(bits: int) -> List[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


class BitsetAntichain:
    """A set of pairwise-incomparable trees with indexed insertion.

    Semantically identical to maintaining a list through
    :func:`~paxml.tree.reduction.antichain_insert`: a candidate subsumed
    by (or equivalent to) a kept tree is dropped, kept trees the
    candidate subsumes are evicted, ties keep the earlier tree.
    """

    __slots__ = ("_trees", "_bits", "_postings", "_anchored", "_anchor",
                 "_live")

    def __init__(self) -> None:
        self._trees: List[Optional[Node]] = []
        self._bits: List[int] = []
        self._postings: Dict[int, Set[int]] = {}
        self._anchored: Dict[int, Set[int]] = {}
        self._anchor: Dict[int, int] = {}
        self._live = 0

    @classmethod
    def from_antichain(cls, trees) -> "BitsetAntichain":
        """Index an existing kept set without any comparisons.

        Mirrors the sequential contract of ``antichain_insert``: members
        already in the list are never re-compared against each other, so
        indexing them wholesale is exactly equivalent — and O(bits) per
        tree instead of O(n·bits).
        """
        index = cls()
        for tree in trees:
            tbits = subtree_bits(tree)
            index._add(tree, tbits, _bit_indexes(tbits))
        return index

    def __len__(self) -> int:
        return self._live

    def __iter__(self) -> Iterator[Node]:
        return (tree for tree in self._trees if tree is not None)

    def items(self) -> List[Node]:
        return [tree for tree in self._trees if tree is not None]

    def insert(self, candidate: Node, cbits: Optional[int] = None) -> bool:
        """Insert ``candidate``; True iff it entered the antichain.

        ``cbits`` may pass the candidate's packed subtree bits when the
        caller already knows them (the evaluator computes answer bits
        straight from the binding), saving the store walk for fresh trees.
        """
        if cbits is None:
            cbits = subtree_bits(candidate)
        cand_bits = _bit_indexes(cbits)
        trees, bits, postings = self._trees, self._bits, self._postings
        # Drop direction: scan the candidate's rarest posting.  A bit
        # with no posting at all proves no kept tree can dominate.
        best: Optional[Set[int]] = None
        best_len = -1
        for b in cand_bits:
            posting = postings.get(b)
            if not posting:
                best = None
                break
            if best_len < 0 or len(posting) < best_len:
                best, best_len = posting, len(posting)
        if best:
            for i in best:
                obits = bits[i]
                if cbits | obits == obits \
                        and is_subsumed(candidate, trees[i]):
                    return False
        # Eviction direction: every subsumable kept tree is anchored at
        # one of the candidate's bits.
        anchored = self._anchored
        evict: List[int] = []
        for b in cand_bits:
            anchor_list = anchored.get(b)
            if anchor_list:
                for i in anchor_list:
                    obits = bits[i]
                    if obits | cbits == cbits \
                            and is_subsumed(trees[i], candidate):
                        evict.append(i)
        for i in evict:
            self._remove(i)
        self._add(candidate, cbits, cand_bits)
        return True

    # ------------------------------------------------------------------

    def _add(self, tree: Node, tbits: int, bit_list: List[int]) -> None:
        index = len(self._trees)
        self._trees.append(tree)
        self._bits.append(tbits)
        postings = self._postings
        anchor = bit_list[0]
        anchor_len = -1
        for b in bit_list:
            posting = postings.get(b)
            if posting is None:
                posting = postings[b] = set()
            if anchor_len < 0 or len(posting) < anchor_len:
                anchor, anchor_len = b, len(posting)
            posting.add(index)
        self._anchor[index] = anchor
        anchored = self._anchored.get(anchor)
        if anchored is None:
            anchored = self._anchored[anchor] = set()
        anchored.add(index)
        self._live += 1

    def _remove(self, index: int) -> None:
        tbits = self._bits[index]
        self._trees[index] = None
        for b in _bit_indexes(tbits):
            posting = self._postings.get(b)
            if posting is not None:
                posting.discard(index)
        anchor = self._anchor.pop(index)
        anchored = self._anchored.get(anchor)
        if anchored is not None:
            anchored.discard(index)
        self._live -= 1
