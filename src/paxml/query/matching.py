"""Snapshot evaluation of positive queries (Section 3.1).

The *snapshot result* ``q(I)`` is the forest of all ``µ(r)`` for assignments
µ that respect typing, satisfy the inequalities, and embed every body
pattern into its document: ``µ(pi) ⊆ I(di)``.  Embeddings are subsumption
homomorphisms — root to root, parent-child preserving, non-injective — so
two pattern siblings may map onto the same document node.

Tree variables are enumerated over *actual document subtrees* only: any
other tree assigned to the variable is subsumed by the subtree at the image
node, so restricting to actual subtrees changes nothing after forest
reduction (the result is the same reduced forest).

This module holds the query layer's entry points and its oracle:

* **Fast path.** :func:`enumerate_assignments`,
  :func:`enumerate_assignments_delta` and :func:`evaluate_snapshot` run
  the compiled plan of :mod:`paxml.query.plan`.
* **Spec oracle.** :func:`spec_snapshot` applies the definition directly:
  the naive matcher :func:`match_pattern` embeds each body atom, atoms
  join left to right, and the whole result is recomputed on every call.
  Tests compare the fast path against it, and with
  ``perf.flags.incremental_matching`` off every call-site evaluation of
  the sequential engine uses it.
* **Witnesses.** :func:`witness_uids` re-walks one embedding of a known
  assignment to recover its image nodes for provenance.

Both the plan and the naive matcher evaluate positive+reg patterns
natively by walking document paths and NFA states in lockstep
(:func:`_regex_end_nodes`); Proposition 5.1's translation ψ
(:mod:`paxml.analysis.translation`) is validated against this native
semantics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..obs import bus as obs_bus
from ..obs.provenance import stage_answer
from ..tree.document import Forest
from ..tree.node import FunName, Label, Node, Value
from ..tree.reduction import canonical_key, reduce_forest
from .pattern import Assignment, PatternNode, RegexSpec, instantiate
from .rule import Inequality, PositiveQuery
from .variables import FunVar, LabelVar, TreeVar, ValueVar


class MissingDocumentError(KeyError):
    """A body atom refers to a document the environment does not provide."""

    def __init__(self, name: str, available: Iterable[str]):
        super().__init__(name)
        self.name = name
        self.available = sorted(available)

    def __str__(self) -> str:
        return (
            f"query reads document {self.name!r} but the environment only "
            f"provides {self.available}"
        )


def _regex_end_nodes(spec: RegexSpec, start: Node) -> Iterator[Node]:
    """All nodes ``nm`` with an accepted path ``start = n0 … nm``.

    The word includes both endpoints' labels, so only label nodes can lie on
    a path.  In a tree the path from ``start`` to any node is unique, hence
    each node is visited at most once and the walk is linear.
    """
    if not isinstance(start.marking, Label):
        return
    nfa = spec.nfa
    states = nfa.step([nfa.initial], start.marking.name)
    if not states:
        return
    stack: List[Tuple[Node, frozenset]] = [(start, states)]
    while stack:
        node, node_states = stack.pop()
        if node_states & nfa.accepting:
            yield node
        for child in node.children:
            if isinstance(child.marking, Label):
                next_states = nfa.step(node_states, child.marking.name)
                if next_states:
                    stack.append((child, next_states))


def _match_node(pattern: PatternNode, node: Node,
                binding: Assignment) -> Iterator[Assignment]:
    """All extensions of ``binding`` embedding ``pattern`` at ``node``."""
    spec = pattern.spec
    if isinstance(spec, RegexSpec):
        for end in _regex_end_nodes(spec, node):
            yield from _match_children(pattern.children, end, binding)
        return
    if isinstance(spec, TreeVar):
        extended = dict(binding)
        extended[spec] = node  # copied only at instantiation time
        yield extended
        return
    if isinstance(spec, (LabelVar, FunVar, ValueVar)):
        if not spec.admits(node.marking):
            return
        bound = binding.get(spec)
        if bound is not None:
            if bound != node.marking:
                return
            yield from _match_children(pattern.children, node, binding)
        else:
            extended = dict(binding)
            extended[spec] = node.marking
            yield from _match_children(pattern.children, node, extended)
        return
    # Constant marking.
    if spec == node.marking:
        yield from _match_children(pattern.children, node, binding)


def _match_children(patterns: List[PatternNode], node: Node,
                    binding: Assignment) -> Iterator[Assignment]:
    """Embed each child pattern at *some* child of ``node`` (non-injectively)."""
    if not patterns:
        yield binding
        return
    first, rest = patterns[0], patterns[1:]
    candidates: Iterable[Node] = node.children
    spec = first.spec
    if isinstance(spec, (Label, FunName, Value)):
        candidates = [c for c in node.children if c.marking == spec]
    for child in candidates:
        for extended in _match_node(first, child, binding):
            yield from _match_children(rest, node, extended)


def match_pattern(pattern: PatternNode, root: Node,
                  binding: Optional[Assignment] = None) -> Iterator[Assignment]:
    """All assignments µ with ``µ(pattern) ⊆ root`` (root mapped to root)."""
    yield from _match_node(pattern, root, dict(binding or {}))


def _binding_key(binding: Assignment) -> frozenset:
    """Hashable identity of an assignment, for deduplication.

    Tree-variable images are compared by canonical key, so two embeddings
    binding a variable to equivalent subtrees count as one assignment.
    Works on *partial* bindings (mid-join dedup); complete assignments of
    a known query should use :func:`binding_keyer` instead.
    """
    items = []
    for variable, value in binding.items():
        if isinstance(value, Node):
            items.append((variable, ("tree", canonical_key(value))))
        else:
            items.append((variable, value))
    return frozenset(items)


def binding_keyer(query: PositiveQuery):
    """A compiled keyer for *complete* assignments of ``query``.

    Every satisfying assignment binds exactly the body variables, so a
    plain value tuple in one fixed variable order identifies it — no
    per-item variable hashing, no frozenset build.  The keyer is cached
    on the query and shared by the plan executor and the incremental
    evaluator, so keys in persisted ``seen`` sets stay comparable.
    """
    keyer = getattr(query, "_binding_keyer", None)
    if keyer is not None:
        return keyer
    from .variables import variable_sort_key  # local: tiny helper

    ordered = tuple(sorted(query.body_variables(), key=variable_sort_key))
    tree_vars = tuple(v for v in ordered if isinstance(v, TreeVar))
    if not tree_vars:
        def keyer(binding, _ordered=ordered):
            return tuple([binding[v] for v in _ordered])
    else:
        def keyer(binding, _ordered=ordered):
            return tuple([
                canonical_key(binding[v]) if isinstance(v, TreeVar)
                else binding[v]
                for v in _ordered])
    query._binding_keyer = keyer
    return keyer


def enumerate_assignments(query: PositiveQuery,
                          documents: Mapping[str, Node]) -> List[Assignment]:
    """All distinct satisfying assignments for the rule body, enumerated
    by the compiled plan of :mod:`paxml.query.plan`."""
    from .plan import compile_query  # lazy: plan imports this module

    return compile_query(query).execute(documents)


def enumerate_assignments_delta(query: PositiveQuery,
                                documents: Mapping[str, Node],
                                cutoff: int,
                                seen: set) -> List[Assignment]:
    """Satisfying assignments not yet recorded in ``seen``.

    Semi-naive over body atoms: one pass per atom, restricting that atom's
    embeddings to data newer than ``cutoff`` while the other atoms match in
    full.  A pass is skipped when its atom's document is unchanged, so an
    invocation that grew a single document only pays for the atoms reading
    it.  ``seen`` is updated in place with the new assignments' keys.
    """
    from .plan import compile_query  # lazy: plan imports this module

    return compile_query(query).execute_delta(documents, cutoff, seen)


# ----------------------------------------------------------------------
# Witness collection (provenance tracing).
#
# Given a *complete* assignment — one the matchers above already produced —
# re-walking the pattern cheaply recovers an embedding's image: the uids of
# the document nodes each pattern node mapped onto.  Only the provenance
# layer calls this, and only while tracing is on, so the enumeration
# matchers stay free of bookkeeping.
# ----------------------------------------------------------------------


def _match_node_witness(pattern: PatternNode, node: Node,
                        binding: Assignment, trail: Tuple[int, ...]
                        ) -> Iterator[Tuple[Assignment, Tuple[int, ...]]]:
    spec = pattern.spec
    if isinstance(spec, RegexSpec):
        for end in _regex_end_nodes(spec, node):
            yield from _match_children_witness(
                pattern.children, end, binding, trail + (node.uid, end.uid))
        return
    if isinstance(spec, TreeVar):
        bound = binding.get(spec)
        if (bound is None or bound is node
                or canonical_key(bound) == canonical_key(node)):
            yield binding, trail + (node.uid,)
        return
    if isinstance(spec, (LabelVar, FunVar, ValueVar)):
        if not spec.admits(node.marking):
            return
        bound = binding.get(spec)
        if bound is not None and bound != node.marking:
            return
        yield from _match_children_witness(pattern.children, node, binding,
                                           trail + (node.uid,))
        return
    if spec == node.marking:
        yield from _match_children_witness(pattern.children, node, binding,
                                           trail + (node.uid,))


def _match_children_witness(patterns: List[PatternNode], node: Node,
                            binding: Assignment, trail: Tuple[int, ...]
                            ) -> Iterator[Tuple[Assignment, Tuple[int, ...]]]:
    if not patterns:
        yield binding, trail
        return
    first, rest = patterns[0], patterns[1:]
    candidates: Iterable[Node] = node.children
    spec = first.spec
    if isinstance(spec, (Label, FunName, Value)):
        candidates = [c for c in node.children if c.marking == spec]
    for child in candidates:
        for _extended, grown in _match_node_witness(first, child, binding,
                                                    trail):
            yield from _match_children_witness(rest, node, binding, grown)


def match_pattern_witness(pattern: PatternNode, root: Node,
                          binding: Assignment
                          ) -> Iterator[Tuple[Assignment, Tuple[int, ...]]]:
    """Embeddings of ``pattern`` at ``root`` consistent with ``binding``,
    paired with the uids of the image nodes (root first)."""
    yield from _match_node_witness(pattern, root, binding, ())


def witness_uids(query: PositiveQuery, documents: Mapping[str, Node],
                 binding: Assignment) -> List[int]:
    """Image-node uids of one embedding per body atom under ``binding``."""
    uids: set = set()
    for atom in query.body:
        root = documents.get(atom.document)
        if root is None:
            continue
        for _assignment, trail in match_pattern_witness(atom.pattern, root,
                                                        binding):
            uids.update(trail)
            break  # one witness per atom suffices for provenance
    return sorted(uids)


def valuation_summary(binding: Assignment) -> Dict[str, str]:
    """A JSON-safe rendering of an assignment for provenance events."""
    from ..tree.serializer import to_canonical

    summary: Dict[str, str] = {}
    for variable, value in binding.items():
        if isinstance(value, Node):
            text = to_canonical(value)
            summary[str(variable)] = (text if len(text) <= 60
                                      else text[:57] + "...")
        else:
            summary[str(variable)] = str(value)
    return summary


def _operand_value(operand, binding: Assignment):
    if isinstance(operand, (LabelVar, FunVar, ValueVar)):
        return binding[operand]
    return operand


def _inequalities_hold(inequalities: List[Inequality], binding: Assignment) -> bool:
    return all(
        _operand_value(ineq.left, binding) != _operand_value(ineq.right, binding)
        for ineq in inequalities
    )


def _answer_forest(query: PositiveQuery, documents: Mapping[str, Node],
                   assignments: List[Assignment], rule_index: int) -> Forest:
    """The reduced forest of ``µ(head)`` over ``assignments``."""
    results = []
    for binding in assignments:
        answer = instantiate(query.head, binding)
        results.append(answer)
        if obs_bus.ACTIVE:
            stage_answer(canonical_key(answer), rule=str(query),
                         rule_index=rule_index,
                         valuation=valuation_summary(binding),
                         matched=witness_uids(query, documents, binding))
    return Forest(reduce_forest(results))


def evaluate_snapshot(query: PositiveQuery,
                      documents: Mapping[str, Node],
                      rule_index: int = 0) -> Forest:
    """The snapshot result ``q(I)``, as a reduced forest.

    ``documents`` maps document names (including, when the query is a
    service body, the reserved names ``input`` and ``context``) to tree
    roots.  The input trees are never mutated; results are fresh trees.
    """
    return _answer_forest(query, documents,
                          enumerate_assignments(query, documents), rule_index)


def spec_snapshot(query: PositiveQuery,
                  documents: Mapping[str, Node],
                  rule_index: int = 0) -> Forest:
    """``q(I)`` computed straight from the definition: the spec oracle.

    Joins the body atoms left to right with :func:`match_pattern`, keeps
    the assignments satisfying every inequality, and reduces the
    instantiated heads.  No plan or marking index is consulted, so the
    result is what every fast path (:func:`evaluate_snapshot`, the
    per-site deltas of :mod:`paxml.query.incremental`) is checked against.
    """
    bindings: List[Assignment] = [{}]
    for atom in query.body:
        if atom.document not in documents:
            raise MissingDocumentError(atom.document, documents.keys())
        root = documents[atom.document]
        extended: List[Assignment] = []
        seen = set()
        for binding in bindings:
            for result in match_pattern(atom.pattern, root, binding):
                key = _binding_key(result)
                if key not in seen:
                    seen.add(key)
                    extended.append(result)
        bindings = extended
        if not bindings:
            break
    return _answer_forest(
        query, documents,
        [b for b in bindings if _inequalities_hold(query.inequalities, b)],
        rule_index)
