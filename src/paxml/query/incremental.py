"""Per-call-site incremental snapshot evaluation (the engine's fast path).

Materialization invokes the same call sites over and over while the
documents they read grow monotonically.  The seed engine re-ran snapshot
evaluation from scratch on every invocation; this module caches, per call
site, the assignments found at document versions ``V`` and on re-invocation
joins only the *delta* — embeddings that touch data newer than ``V``
(:func:`paxml.query.matching.enumerate_assignments_delta`).  Monotonicity
(Proposition 3.1) guarantees cached assignments never have to be retracted:
documents only gain subtrees, and reduction replaces trees by equivalent
ones only.

The evaluator returns *delta forests*: answers not previously returned for
the site.  Grafting is idempotent up to subsumption (an already-delivered
answer is dropped by the antichain insertion), so delivering each answer
once yields byte-identical reduced documents while cutting the per-step
graft cost from O(all answers ever) to O(new answers).
"""

from __future__ import annotations

import weakref
from typing import Dict, Hashable, List, Mapping, Optional, Set

from .. import perf
from ..obs import bus as obs_bus
from ..obs.provenance import stage_answer
from ..tree import store as tree_store
from ..tree.antichain import BitsetAntichain
from ..tree.document import Forest
from ..tree.node import Node, current_stamp
from ..tree.reduction import canonical_key
from .matching import (
    binding_keyer,
    enumerate_assignments,
    enumerate_assignments_delta,
    evaluate_snapshot,
    spec_snapshot,
    valuation_summary,
    witness_uids,
)
from .pattern import PatternNode, RegexSpec, instantiate
from .rule import PositiveQuery
from .variables import FunVar, LabelVar, TreeVar, ValueVar


_EMPTY_KEYSET: frozenset = frozenset()


def _compile_head_key(pattern: PatternNode):
    """A closure computing ``canonical_key(instantiate(pattern, µ))`` from µ.

    Canonical keys compose structurally — ``(marking, frozenset(maximal
    child keys))`` — so for most heads the key of an answer is computable
    straight from the binding, without building the answer tree at all.
    The evaluator uses this to recognise duplicate answers (many join
    valuations project to the same head) before paying for instantiation.

    The one non-compositional ingredient is the sibling-maximality filter:
    with several children it needs subsumption tests between the actual
    trees.  Sibling subsumption requires equal root markings, so the
    filter is statically vacuous when every child root is a concrete
    marking and no two are equal — the common shape for heads.  Returns
    ``None`` (caller falls back to instantiate-then-key) otherwise.
    """
    spec = pattern.spec
    if isinstance(spec, RegexSpec):
        return None
    if isinstance(spec, TreeVar):
        # The bound subtree is copied at instantiation; the copy is
        # structurally identical, so the document node's (cached) key is
        # the answer subtree's key.
        return lambda binding: canonical_key(binding[spec])
    children = pattern.children
    if len(children) > 1:
        markings = [child.spec for child in children]
        if any(isinstance(m, (LabelVar, FunVar, ValueVar, TreeVar, RegexSpec))
               for m in markings) or len(set(markings)) != len(markings):
            return None
    subkeys = [_compile_head_key(child) for child in children]
    if any(sub is None for sub in subkeys):
        return None
    if isinstance(spec, (LabelVar, FunVar, ValueVar)):
        if not children:
            return lambda binding: (binding[spec], _EMPTY_KEYSET)
        return lambda binding: (
            binding[spec], frozenset(sub(binding) for sub in subkeys))
    # Concrete marking; collapse to a constant when the whole subtree is.
    if not children:
        const_key = (spec, _EMPTY_KEYSET)
        return lambda binding: const_key
    return lambda binding: (
        spec, frozenset(sub(binding) for sub in subkeys))


def _compile_head_bits(pattern: PatternNode):
    """A closure computing the packed subtree bits of µ(head) from µ.

    The bitset of an instantiated head is the union of one bit per
    marking in it: a constant mask for the concrete markings (re-interned
    lazily — intern ids are bit positions and die with ``clear_store``),
    one interned bit per bound node variable, and the store-cached bits
    of each bound subtree for tree variables.  Computing this from the
    binding spares the store from allocating rows for fresh answer trees
    that exist only to sit in a result antichain.
    """
    const_markings = []
    var_specs = []
    tree_specs = []
    for node in pattern.iter_nodes():
        spec = node.spec
        if isinstance(spec, RegexSpec):
            return None
        if isinstance(spec, TreeVar):
            tree_specs.append(spec)
        elif isinstance(spec, (LabelVar, FunVar, ValueVar)):
            var_specs.append(spec)
        else:
            const_markings.append(spec)
    intern = tree_store.intern_marking
    subtree_bits = tree_store.subtree_bits
    cache = {"generation": -1, "mask": 0}

    def head_bits(binding) -> int:
        generation = tree_store.generation()
        if cache["generation"] != generation:
            mask = 0
            for marking in const_markings:
                mask |= 1 << intern(marking)
            cache["generation"] = generation
            cache["mask"] = mask
        bits = cache["mask"]
        for spec in var_specs:
            bits |= 1 << intern(binding[spec])
        for spec in tree_specs:
            # Tree-variable images are document subtrees with live rows;
            # the instantiated copy shares their marking content exactly.
            bits |= subtree_bits(binding[spec])
        return bits
    return head_bits


class _SiteState:
    """What one call site remembers between invocations of one query."""

    __slots__ = ("cutoff", "seen", "results", "result_keys", "doc_uids")

    def __init__(self, cutoff: int, seen: set, results,
                 result_keys: set, doc_uids: Dict[str, int]):
        self.cutoff = cutoff          # stamp the cached assignments cover
        self.seen = seen              # binding keys of every assignment found
        self.results = results        # BitsetAntichain of all results so far
        self.result_keys = result_keys  # canonical keys of every answer seen
        self.doc_uids = doc_uids      # environment identity check


# Live evaluators, tracked weakly so perf.clear_caches() can reach their
# site caches without keeping garbage evaluators alive.
_live_evaluators: "weakref.WeakSet[IncrementalQueryEvaluator]" = weakref.WeakSet()
perf.register_cache(lambda: [e.reset() for e in _live_evaluators])


class IncrementalQueryEvaluator:
    """Incremental evaluation of one positive query across many call sites."""

    def __init__(self, query: PositiveQuery, rule_index: int = 0):
        self.query = query
        self.rule_index = rule_index  # position within a union service
        self._sites: Dict[Hashable, _SiteState] = {}
        # Hash-consed answer instantiation: binding key → (answer tree,
        # canonical key).  Distinct call sites of one service routinely
        # derive the same valuations; returning the *same* answer object
        # keeps its uid/version stable, so the persistent subsumption
        # cache, the per-node canonical-key slot and the subtree-bits
        # row all stay hot instead of being defeated by fresh uids.
        # Sound because answers are never mutated: grafting copies them
        # (``graft_answers``) and antichain membership is read-only.
        self._answers: Dict[frozenset, tuple] = {}
        # Key-template fast path: compute the canonical key straight from
        # the binding, and only instantiate (once, memoised by key) when
        # the key is new to the site.  Answers with equal keys are
        # equivalent, so which representative gets grafted is immaterial.
        self._head_key = _compile_head_key(query.head)
        self._head_bits = _compile_head_bits(query.head)
        self._by_key: Dict[tuple, Node] = {}
        _live_evaluators.add(self)

    def _instantiate(self, binding) -> tuple:
        """The (answer, canonical key) for ``binding``, hash-consed."""
        bkey = binding_keyer(self.query)(binding)
        cached = self._answers.get(bkey)
        if cached is None:
            answer = instantiate(self.query.head, binding)
            cached = (answer, canonical_key(answer))
            self._answers[bkey] = cached
        return cached

    def _answer_for(self, key, binding) -> Node:
        """The memoised answer tree for a template-computed ``key``."""
        answer = self._by_key.get(key)
        if answer is None:
            answer = instantiate(self.query.head, binding)
            self._by_key[key] = answer
        return answer

    def _stage_provenance(self, answer: Node, key,
                          environment: Mapping[str, Node],
                          binding) -> None:
        """Record, for the provenance index, how ``answer`` was derived."""
        stage_answer(key, rule=str(self.query), rule_index=self.rule_index,
                     valuation=valuation_summary(binding),
                     matched=witness_uids(self.query, environment, binding))

    # ------------------------------------------------------------------

    def _environment_uids(self, environment: Mapping[str, Node]) -> Dict[str, int]:
        return {name: environment[name].uid
                for name in self.query.document_names()}

    def evaluate_delta(self, environment: Mapping[str, Node],
                       site: Optional[Hashable]) -> Forest:
        """Answers not previously returned for ``site`` (all of them if new).

        Returns the complete snapshot result when no site identity is
        available.  With ``perf.flags.incremental_matching`` off every
        call returns the complete result of the spec oracle
        :func:`~paxml.query.matching.spec_snapshot`, recomputed from
        scratch.
        """
        if not perf.flags.incremental_matching:
            perf.stats.full_evaluations += 1
            return spec_snapshot(self.query, environment, self.rule_index)
        if site is None:
            perf.stats.full_evaluations += 1
            return evaluate_snapshot(self.query, environment)

        state = self._sites.get(site)
        doc_uids = self._environment_uids(environment)
        if state is not None and state.doc_uids != doc_uids:
            # A document root this site cached against was swapped (e.g. a
            # fresh input tree after the call's parameters grew).  Cached
            # results stay sound by monotonicity, but the assignment cache
            # is keyed to the old trees — start the site over.
            state = None

        if state is None:
            cutoff = current_stamp()
            perf.stats.full_evaluations += 1
            assignments = enumerate_assignments(self.query, environment)
            seen: set = set()
            results = BitsetAntichain()
            result_keys: set = set()
            head_key = self._head_key
            head_bits = self._head_bits
            bkey = binding_keyer(self.query)
            for binding in assignments:
                seen.add(bkey(binding))
                # Many assignments instantiate equivalent answers (e.g. a
                # join witness the head projects away).  Equal canonical
                # keys ⟺ equivalent trees, and once a key was inserted the
                # antichain dominates that answer forever (it only ever gets
                # stronger), so repeats skip the O(|results|) insertion —
                # and, when the head has a key template, skip instantiation
                # altogether.
                if head_key is not None:
                    key = head_key(binding)
                    if key in result_keys:
                        continue
                    answer = self._answer_for(key, binding)
                else:
                    answer, key = self._instantiate(binding)
                    if key in result_keys:
                        continue
                result_keys.add(key)
                if obs_bus.ACTIVE:
                    self._stage_provenance(answer, key, environment, binding)
                results.insert(answer,
                               head_bits(binding) if head_bits else None)
            self._sites[site] = _SiteState(cutoff, seen, results, result_keys,
                                           doc_uids)
            return Forest(list(results))

        perf.stats.delta_evaluations += 1
        new_cutoff = current_stamp()
        new_assignments = enumerate_assignments_delta(
            self.query, environment, state.cutoff, state.seen)
        results = state.results
        delta: List[Node] = []
        head_key = self._head_key
        head_bits = self._head_bits
        for binding in new_assignments:
            if head_key is not None:
                key = head_key(binding)
                if key in state.result_keys:
                    continue
                answer = self._answer_for(key, binding)
            else:
                answer, key = self._instantiate(binding)
                if key in state.result_keys:
                    continue
            state.result_keys.add(key)
            if obs_bus.ACTIVE:
                self._stage_provenance(answer, key, environment, binding)
            if results.insert(answer,
                              head_bits(binding) if head_bits else None):
                delta.append(answer)
        state.cutoff = new_cutoff
        return Forest(delta)

    def reset(self) -> None:
        self._sites.clear()
        self._answers.clear()
        self._by_key.clear()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def export_cutoffs(self) -> Dict[Hashable, int]:
        """Per-site cutoff stamps (the only state a checkpoint persists)."""
        return {site: state.cutoff for site, state in self._sites.items()}

    def restore_cutoff(self, site: Hashable, cutoff: int,
                       doc_uids: Dict[str, int]) -> None:
        """Re-seed a site from a checkpointed cutoff with empty caches.

        Sound because the answers delivered before the checkpoint are
        already inside the restored documents (anything re-derived drops
        by antichain subsumption at graft time), and cheap because every
        restored node has ``version <= cutoff`` — the next invocation
        joins only against data grafted *after* the resume.
        """
        self._sites[site] = _SiteState(cutoff, set(), BitsetAntichain(),
                                       set(), dict(doc_uids))
        perf.stats.site_cutoffs_restored += 1


class ContinuousQueryLog:
    """An append-only certain-answer log for one *continuous* query.

    The serve layer's fan-out core: one log per registered query, shared
    by every subscriber.  :meth:`refresh` runs one incremental delta
    evaluation (a synthetic site key makes the evaluator treat the
    continuous query as a single long-lived call site) and appends the
    genuinely new answers; subscribers each hold a plain integer cursor
    into the log and :meth:`read` from it independently.  The per-graft
    cost is therefore one delta join — independent of the subscriber
    count — and delivery to N subscribers is N cursor reads of the same
    list.

    Answers are stored as canonical text (:func:`~paxml.tree.serializer.
    to_canonical`), the form the wire protocol ships; by Proposition 3.1
    the log only ever grows, so a cursor never has to be invalidated.
    The concatenated log can be a strict superset of the *reduced*
    current result — a later answer may subsume an earlier one, which an
    append-only stream cannot retract — but their reductions coincide,
    which is the exactness contract the oracle suite checks.
    """

    def __init__(self, query: PositiveQuery, key: Hashable):
        self.query = query
        self.key = key
        self._evaluator = IncrementalQueryEvaluator(query)
        self._site = ("continuous", key)
        self.answers: List[str] = []
        # Parallel to ``answers``: the causal trace wire dict of the
        # graft whose refresh produced each answer (None when the graft
        # was untraced) and the perf_counter stamp of the append — the
        # serve layer's end-to-end inject→delta-push latency reads the
        # stamp back at push time.
        self.traces: List[Optional[dict]] = []
        self.stamps: List[float] = []
        self._seen: Set[str] = set()

    def __len__(self) -> int:
        return len(self.answers)

    def refresh(self, environment: Mapping[str, Node]) -> List[str]:
        """Evaluate the delta against ``environment``; append and return
        the new answers (canonical texts).

        Re-registering after a suspend/resume cycle replays the full
        snapshot through a fresh evaluator; the ``_seen`` filter keeps
        answers already streamed out of the log, so cursors stay valid
        across the gap.
        """
        import time
        from ..obs import trace as obs_trace  # local: avoid cycle
        from ..tree.serializer import to_canonical  # local: avoid cycle

        delta = self._evaluator.evaluate_delta(environment, self._site)
        fresh: List[str] = []
        ctx = obs_trace.current()
        trace_wire = ctx.to_wire() if ctx is not None else None
        stamp = time.perf_counter()
        for tree in delta:
            text = to_canonical(tree)
            if text in self._seen:
                continue
            self._seen.add(text)
            self.answers.append(text)
            self.traces.append(trace_wire)
            self.stamps.append(stamp)
            fresh.append(text)
        return fresh

    def read(self, cursor: int) -> tuple:
        """``(new_cursor, answers[cursor:])`` — one subscriber's catch-up."""
        return len(self.answers), self.answers[cursor:]

    def read_traced(self, cursor: int) -> tuple:
        """``(new_cursor, answers, traces, stamps)`` past the cursor."""
        return (len(self.answers), self.answers[cursor:],
                self.traces[cursor:], self.stamps[cursor:])

    def preload(self, answers) -> None:
        """Seed the log with already-streamed answers (spool restore)."""
        import time
        stamp = time.perf_counter()
        for text in answers:
            if text not in self._seen:
                self._seen.add(text)
                self.answers.append(text)
                self.traces.append(None)
                self.stamps.append(stamp)

    def reset_evaluator(self) -> None:
        """Drop the evaluator's caches (suspend path); the log survives."""
        self._evaluator = IncrementalQueryEvaluator(self.query)
