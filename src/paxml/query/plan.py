"""Compiled match plans: the query layer's one executor.

Each :class:`~paxml.query.rule.PositiveQuery` is compiled once into a
plan, and each plan node is lowered once into a specialized Python
closure.  The closures enumerate the assignments of Proposition 3.1 with
these techniques:

* **sibling ordering** — each pattern node's children are reordered by
  static selectivity (constant subpatterns before regex paths before
  marking variables before tree variables, bigger constants first), so
  cheap filters run before binding generators;
* **constant subpattern hash-consing** — variable-free subpatterns are
  instantiated once into plain trees (their :func:`canonical_key` is the
  hash-consing identity); duplicate or subsumed constant siblings are
  dropped at compile time (a sibling whose tree is subsumed by another's
  embeds wherever the other does, non-injectively), and at run time the
  whole subpattern becomes one :func:`is_subsumed` test against the
  *persistent* subsumption cache — repeated evaluations pay nothing;
* **runtime-const subpatterns** — a closed subpattern (no regex, no tree
  variables) whose node variables are all bound by the time the join
  reaches it is instantiated into a plain tree, hash-consed per (plan
  node, bound values), and matched with a single :func:`is_subsumed`
  test; join shapes like ``t{c0{$z}, c1{$y}}`` with ``$z`` bound take
  this path;
* **indexed candidates** — constant-marked siblings draw candidates from
  :func:`paxml.tree.index.child_bucket` instead of scanning children,
  and a sibling shaped ``p{q{$z}, …}`` with ``$z`` bound probes the
  value index (:func:`~paxml.tree.index.probe_bucket`) so an equi-join
  touches only the rows that can match;
* **undo-log binding with pushed-down checks** — one mutable assignment
  dict threads through the whole body join; binding a variable pushes it
  on a trail (undone on backtrack, no ``dict(binding)`` copies), and
  every inequality fires the moment its second operand binds, pruning
  the search at the earliest possible point;
* **selectivity-ordered joins** — body atoms are greedily ordered per
  evaluation using the per-document marking census: atoms whose constant
  markings are rare (low estimated fanout) run first, and atoms sharing
  already-bound variables are discounted, so the join frontier stays
  small.

Delta evaluation (:meth:`QueryPlan.execute_delta`) is semi-naive.
Documents grow monotonically, and every append bumps the version stamp
of each node on its root path, so every embedding that did not exist at
a cutoff stamp maps some pattern node to a node created after it (uid >
cutoff) or binds a tree variable to a subtree grown since it (version >
cutoff).  One pass runs per changed atom, that atom restricted to such
embeddings and forced first in the join order (the delta side of
``Δ⋈full``); the ``seen`` set filters re-derived assignments.  Constant
and runtime-const shortcuts in delta mode may report an embedding as
"new" liberally (the cached subsumption verdict does not say *which*
nodes the homomorphism used); that over-approximation is sound because
``seen`` already filters every previously-delivered assignment — only
completeness (never missing a genuinely new assignment) is load-bearing,
and the liberal report preserves it.

The spec oracle every plan is tested against is
:func:`paxml.query.matching.spec_snapshot`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .. import perf
from ..obs import bus as obs_bus
from ..obs import events as obs_events
from ..tree import index as tree_index
from ..tree.node import FunName, Label, Marking, Node, Value
from ..tree.reduction import canonical_key
from ..tree.subsumption import is_subsumed
from .matching import MissingDocumentError, _regex_end_nodes, binding_keyer
from .pattern import Assignment, PatternNode, RegexSpec, instantiate, pattern_to_text
from .rule import Inequality, PositiveQuery
from .variables import FunVar, LabelVar, TreeVar, ValueVar, Variable

_CONST_MARKINGS = (Label, FunName, Value)
_NODE_VARS = (LabelVar, FunVar, ValueVar)


class PlanNode:
    """One pattern node of a compiled plan.

    ``children`` are in planned (selectivity) order.  ``const_tree`` is
    the instantiated plain tree when the whole subpattern is variable-
    and regex-free — matching it at a document node is exactly the
    subsumption test ``const_tree ⊑ node``.  ``probe`` is the optional
    value-index access path ``(q_marking, operand)``: document candidates
    for this node must own a ``q_marking`` child holding the operand's
    value as a leaf.
    """

    __slots__ = ("spec", "children", "const_tree", "const_key", "probe")

    def __init__(self, spec, children: List["PlanNode"]):
        self.spec = spec
        self.children = children
        self.const_tree: Optional[Node] = None
        self.const_key = None
        self.probe: Optional[Tuple[Marking, object]] = None

    def to_pattern(self) -> PatternNode:
        """The planned subpattern as a plain pattern (for display)."""
        return PatternNode(self.spec, [c.to_pattern() for c in self.children])

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)


def _selectivity_rank(node: PlanNode) -> Tuple[int, int]:
    """Sort key: lower = matched earlier = expected more selective."""
    spec = node.spec
    if node.const_tree is not None:
        group = 0          # one cached subsumption test, binds nothing
    elif isinstance(spec, _CONST_MARKINGS):
        group = 1          # constant bucket lookup, variables below
    elif isinstance(spec, RegexSpec):
        group = 2
    elif isinstance(spec, ValueVar):
        group = 3
    elif isinstance(spec, FunVar):
        group = 4
    elif isinstance(spec, LabelVar):
        group = 5
    else:                  # TreeVar: matches any subtree, defer to last
        group = 6
    return (group, -node.size())


def _compile_pattern(pattern: PatternNode) -> PlanNode:
    children = [_compile_pattern(child) for child in pattern.children]
    node = PlanNode(pattern.spec, children)
    is_const = isinstance(pattern.spec, _CONST_MARKINGS) and all(
        child.const_tree is not None for child in children)
    if is_const:
        node.const_tree = instantiate(pattern, {})
        node.const_key = canonical_key(node.const_tree)
        return node
    # Hash-cons constant siblings by canonical key, then drop every
    # constant sibling subsumed by another: subsumption homomorphisms are
    # non-injective, so an embedding of the dominating sibling restricts
    # to one of the dominated (both may map onto the same document
    # child) — the dominated conjunct is redundant.
    consts: List[PlanNode] = []
    rest: List[PlanNode] = []
    for child in children:
        if child.const_tree is None:
            rest.append(child)
            continue
        if any(is_subsumed(child.const_tree, kept.const_tree)
               for kept in consts):
            continue
        consts = [kept for kept in consts
                  if not is_subsumed(kept.const_tree, child.const_tree)]
        consts.append(child)
    node.children = sorted(consts + rest, key=_selectivity_rank)
    if isinstance(pattern.spec, (Label, FunName)):
        node.probe = _find_probe(node)
    return node


def _find_probe(node: PlanNode) -> Optional[Tuple[Marking, object]]:
    """An access path ``(q_marking, operand)`` for value-index narrowing.

    Looks for a child ``q`` with a constant label/function marking that
    itself requires a value leaf (a ``Value`` constant or a ``ValueVar``)
    directly below — a necessary condition every candidate must satisfy,
    checkable through :func:`paxml.tree.index.probe_bucket` in O(answer)
    once the operand is known.
    """
    for q in node.children:
        if not isinstance(q.spec, (Label, FunName)):
            continue
        for leaf in q.children:
            if isinstance(leaf.spec, Value):
                return (q.spec, leaf.spec)
            if isinstance(leaf.spec, ValueVar):
                return (q.spec, leaf.spec)
    return None


class PlanAtom:
    """One compiled ``d/p`` conjunct."""

    __slots__ = ("document", "root", "variables", "specs")

    def __init__(self, document: str, root: PlanNode):
        self.document = document
        self.root = root
        self.variables: Tuple[Variable, ...] = tuple(_ordered_variables(root))
        self.specs: Tuple[object, ...] = tuple(_iter_specs(root))


def _ordered_variables(root: PlanNode) -> List[Variable]:
    out: List[Variable] = []
    seen: Set[Variable] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node.spec, (LabelVar, FunVar, ValueVar, TreeVar)) \
                and node.spec not in seen:
            seen.add(node.spec)
            out.append(node.spec)
        stack.extend(node.children)
    return out


def _iter_specs(root: PlanNode):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node.spec
        if node.const_tree is None:
            stack.extend(node.children)


class QueryPlan:
    """An executable plan for one positive query."""

    def __init__(self, query: PositiveQuery):
        self.query = query
        self.atoms: List[PlanAtom] = [
            PlanAtom(atom.document, _compile_pattern(atom.pattern))
            for atom in query.body
        ]
        self._closure_backend = None  # lowered on first run, see _closures()
        self.always_false = False
        # var → other operands it must differ from (vars or constants);
        # checked the moment the *second* operand binds.
        self.ineq_by_var: Dict[Variable, List[object]] = {}
        for ineq in query.inequalities:
            left_var = isinstance(ineq.left, _NODE_VARS)
            right_var = isinstance(ineq.right, _NODE_VARS)
            if left_var:
                self.ineq_by_var.setdefault(ineq.left, []).append(ineq.right)
            if right_var:
                self.ineq_by_var.setdefault(ineq.right, []).append(ineq.left)
            if not left_var and not right_var and ineq.left == ineq.right:
                self.always_false = True

    # ------------------------------------------------------------------
    # join ordering
    # ------------------------------------------------------------------

    def _atom_cost(self, atom: PlanAtom, documents: Mapping[str, Node],
                   bound: Set[Variable]) -> float:
        """Log-scale estimate of the atom's result multiplicity.

        Constant markings contribute their census count in the document
        (low-fanout buckets are cheap); unbound marking variables and
        regex paths contribute the document size; bound variables and
        tree variables act as filters and cost nothing.
        """
        counts, total = tree_index.marking_census(documents[atom.document])
        cost = 0.0
        for spec in atom.specs:
            if isinstance(spec, _CONST_MARKINGS):
                cost += math.log1p(counts.get(spec, 0))
            elif isinstance(spec, RegexSpec):
                cost += math.log1p(total)
            elif isinstance(spec, TreeVar):
                continue
            elif spec in bound:
                continue
            else:
                cost += math.log1p(total)
        return cost

    def join_order(self, documents: Mapping[str, Node],
                   first: Optional[int] = None) -> List[int]:
        """Greedy selectivity order over body atoms (ties: author order)."""
        remaining = list(range(len(self.atoms)))
        bound: Set[Variable] = set()
        order: List[int] = []
        if first is not None:
            remaining.remove(first)
            order.append(first)
            bound.update(self.atoms[first].variables)
        while remaining:
            best = min(remaining, key=lambda i: (
                self._atom_cost(self.atoms[i], documents, bound), i))
            remaining.remove(best)
            order.append(best)
            bound.update(self.atoms[best].variables)
        return order

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _check_documents(self, documents: Mapping[str, Node]) -> bool:
        """Raise on missing documents; False when an atom cannot match."""
        for atom in self.atoms:
            if atom.document not in documents:
                raise MissingDocumentError(atom.document, documents.keys())
        for atom in self.atoms:
            spec = atom.root.spec
            if isinstance(spec, _CONST_MARKINGS) \
                    and spec != documents[atom.document].marking:
                return False
        return True

    def execute(self, documents: Mapping[str, Node]) -> List[Assignment]:
        """All distinct satisfying assignments (= naive enumeration)."""
        perf.stats.planned_evaluations += 1
        if not self._check_documents(documents) or self.always_false:
            return []
        state = _ExecState(self.ineq_by_var, cutoff=-1)
        results: List[Assignment] = []
        order = self.join_order(documents)
        self._run_join(order, None, documents, state, results, seen=None)
        return results

    def execute_delta(self, documents: Mapping[str, Node], cutoff: int,
                      seen: set) -> List[Assignment]:
        """Satisfying assignments not yet in ``seen`` (updated in place)."""
        perf.stats.planned_delta_evaluations += 1
        if not self._check_documents(documents) or self.always_false:
            return []
        results: List[Assignment] = []
        for i, atom in enumerate(self.atoms):
            if documents[atom.document].version <= cutoff:
                continue
            state = _ExecState(self.ineq_by_var, cutoff=cutoff)
            order = self.join_order(documents, first=i)
            self._run_join(order, i, documents, state, results, seen=seen)
        return results

    def _closures(self):
        """The lowered (full, delta) matcher closures, one pair per atom.

        Lowered once per plan, on first execution, and cached on the plan
        (plans are immutable).
        """
        backend = self._closure_backend
        if backend is None:
            ineq_vars = frozenset(self.ineq_by_var)
            backend = self._closure_backend = (
                [_compile_full(atom.root, ineq_vars) for atom in self.atoms],
                [_compile_delta(atom.root, ineq_vars) for atom in self.atoms],
            )
            perf.stats.closure_compilations += 1
            if obs_bus.ACTIVE:
                obs_bus.emit(obs_events.PLAN_LOWERED, rule=str(self.query),
                             atoms=len(self.atoms))
        return backend

    def _run_join(self, order: List[int], delta_atom: Optional[int],
                  documents: Mapping[str, Node], state: "_ExecState",
                  results: List[Assignment], seen: Optional[set]) -> None:
        # Variables first bound at each join position are static given the
        # order, so per-atom extensions are deduplicated on exactly those.
        new_vars: List[Tuple[Variable, ...]] = []
        bound: Set[Variable] = set()
        for index in order:
            fresh = tuple(v for v in self.atoms[index].variables
                          if v not in bound)
            new_vars.append(fresh)
            bound.update(fresh)
        binding, trail = state.binding, state.trail
        full_matchers, delta_matchers = self._closures()

        bkey = binding_keyer(self.query) if seen is not None else None

        def run_atom(k: int) -> None:
            if k == len(order):
                if seen is not None:
                    key = bkey(binding)
                    if key in seen:
                        return
                    seen.add(key)
                results.append(dict(binding))
                return
            atom = self.atoms[order[k]]
            root = documents[atom.document]
            fresh = new_vars[k]
            # Collect this atom's distinct extensions of the current
            # binding before recursing: many embeddings induce the same
            # extension (non-injective matching), and deduplicating here
            # is what keeps the join polynomial.
            exts: List[Tuple[object, ...]] = []
            ext_keys: Set[Tuple[object, ...]] = set()

            def emit() -> None:
                key = tuple(
                    ("t", canonical_key(binding[v]))
                    if isinstance(binding[v], Node) else binding[v]
                    for v in fresh)
                if key not in ext_keys:
                    ext_keys.add(key)
                    exts.append(tuple(binding[v] for v in fresh))

            mark = len(trail)
            if order[k] == delta_atom:
                delta_matchers[order[k]](root, state, True,
                                         lambda _new: emit())
            else:
                full_matchers[order[k]](root, state, emit)
            state.undo_to(mark)
            for ext in exts:
                ok = True
                for variable, value in zip(fresh, ext):
                    if not state.bind(variable, value):
                        ok = False
                        break
                if ok:
                    run_atom(k + 1)
                state.undo_to(mark)

        run_atom(0)


class _ExecState:
    """Undo-log assignment shared by the whole join.

    ``bind`` installs a variable, records it on the trail, and fires
    every inequality whose second operand just became known;
    ``undo_to`` rolls the assignment back to a trail mark.  No
    ``dict(binding)`` copies happen anywhere on the search path — a full
    assignment is copied out only when it reaches the join's end.
    """

    __slots__ = ("binding", "trail", "ineq_by_var", "cutoff", "_new_memo")

    def __init__(self, ineq_by_var: Dict[Variable, List[object]], cutoff: int):
        self.binding: Dict[Variable, object] = {}
        self.trail: List[Variable] = []
        self.ineq_by_var = ineq_by_var
        self.cutoff = cutoff
        self._new_memo: Dict[Tuple[int, object], List[Node]] = {}

    def bind(self, variable: Variable, value: object) -> bool:
        others = self.ineq_by_var.get(variable)
        if others is not None:
            binding = self.binding
            for other in others:
                resolved = (binding.get(other)
                            if isinstance(other, _NODE_VARS) else other)
                if resolved is not None and resolved == value:
                    return False
        self.binding[variable] = value
        self.trail.append(variable)
        return True

    def undo_to(self, mark: int) -> None:
        binding, trail = self.binding, self.trail
        while len(trail) > mark:
            del binding[trail.pop()]

    def new_children(self, node: Node,
                     candidates: Sequence[Node], key: object) -> List[Node]:
        """Post-cutoff members of ``candidates``, memoised per (node, key)."""
        memo_key = (id(node), key)
        cached = self._new_memo.get(memo_key)
        if cached is None:
            cutoff = self.cutoff
            cached = [c for c in candidates if c.version > cutoff]
            self._new_memo[memo_key] = cached
        return cached


# ----------------------------------------------------------------------
# Closure lowering.
#
# Each plan node becomes one specialized closure.  Every per-call decision
# — the spec's kind, the candidate access path, the admits() class, the
# sibling continuation — is resolved once at lowering time.
#
# A full matcher is ``(node, state, cont)``: it calls ``cont()`` once per
# binding extension embedding the plan node at ``node``, with the
# extension installed in ``state.binding``, and returns with the trail as
# it found it.  A delta matcher is ``(node, state, need_new, cont)``: with
# ``need_new`` the embedding must touch post-cutoff data, and ``cont``
# receives whether it (liberally) did; see the module docstring.
# ----------------------------------------------------------------------

_ADMITS = {LabelVar: Label, FunVar: FunName, ValueVar: Value}

# Hash-consed runtime-const instantiations: (plan-node id, bound values)
# → the instantiated plain tree.  Reusing one tree object per valuation
# keeps its (uid, version) stable, so every repeated test lands in the
# persistent subsumption cache.
_RT_CONST_CACHE: Dict[tuple, Node] = {}
_RT_CONST_MAX = 200_000

perf.register_cache(_RT_CONST_CACHE.clear)


def _rt_const_info(plan_node: PlanNode):
    """``(variables, template)`` when the subpattern is *runtime-const*.

    A subpattern qualifies when it is closed — no regex edges and no tree
    variables anywhere — so that once its node variables are bound the
    whole subtree denotes one concrete tree: matching it at a node is
    then exactly ``instantiate(template, binding) ⊑ node``, one cached
    subsumption test instead of a structural search.  (An all-constant
    subpattern never reaches here: ``const_tree`` already covers it.)
    """
    variables: List[Variable] = []
    stack = [plan_node]
    while stack:
        node = stack.pop()
        spec = node.spec
        if isinstance(spec, (RegexSpec, TreeVar)):
            return None
        if isinstance(spec, _NODE_VARS) and spec not in variables:
            variables.append(spec)
        stack.extend(node.children)
    if not variables:
        return None
    return tuple(variables), plan_node.to_pattern()


def _rt_const_tree(pid: int, template: PatternNode,
                   values: tuple, binding) -> Node:
    key = (pid, values)
    tree = _RT_CONST_CACHE.get(key)
    if tree is None:
        if len(_RT_CONST_CACHE) >= _RT_CONST_MAX:
            _RT_CONST_CACHE.clear()
        tree = instantiate(template, binding)
        _RT_CONST_CACHE[key] = tree
    return tree


def _compile_candidates(plan_node: PlanNode):
    """``(node, state) -> candidates`` with the access path preselected;
    None means the caller should scan ``node.children`` directly."""
    spec = plan_node.spec
    if not isinstance(spec, _CONST_MARKINGS):
        return None
    probe = plan_node.probe
    if probe is None:
        def cand(node, state):
            return tree_index.child_bucket(node, spec)
        return cand
    q_marking, operand = probe
    if isinstance(operand, Value):
        def cand(node, state):
            return tree_index.probe_bucket(node, spec, q_marking, operand)
        return cand

    def cand(node, state):
        value = state.binding.get(operand)
        if value is not None:
            return tree_index.probe_bucket(node, spec, q_marking, value)
        return tree_index.child_bucket(node, spec)
    return cand


def _compile_full(plan_node: PlanNode, ineq_vars: frozenset):
    """Lower one plan node to a ``(node, state, cont)`` closure."""
    spec = plan_node.spec
    const_tree = plan_node.const_tree
    if const_tree is not None:
        def m_const(node, state, cont):
            perf.stats.const_subpattern_tests += 1
            if is_subsumed(const_tree, node):
                cont()
        return m_const
    children_m = _compile_children_full(plan_node.children, ineq_vars)
    if isinstance(spec, RegexSpec):
        def m_regex(node, state, cont):
            for end in _regex_end_nodes(spec, node):
                children_m(end, state, cont)
        return m_regex
    if isinstance(spec, TreeVar):
        # Inequalities only ever constrain node variables, so tree-var
        # binds cannot fail — push/pop the trail inline.
        def m_tree(node, state, cont):
            state.binding[spec] = node
            state.trail.append(spec)
            cont()
            del state.binding[spec]
            state.trail.pop()
        return m_tree
    if isinstance(spec, _NODE_VARS):
        admits = _ADMITS[type(spec)]
        unconstrained = spec not in ineq_vars
        if not plan_node.children:
            # Leaf variables (the overwhelmingly common case: data values
            # under a relation row) skip the empty-children continuation;
            # without inequalities on the variable the bind cannot fail,
            # so the trail discipline inlines too (matchers are
            # symmetric: ``cont`` returns with the trail as it found it).
            if unconstrained:
                def m_var_leaf_free(node, state, cont):
                    marking = node.marking
                    if type(marking) is not admits:
                        return
                    binding = state.binding
                    bound = binding.get(spec)
                    if bound is not None:
                        if bound == marking:
                            cont()
                    else:
                        binding[spec] = marking
                        state.trail.append(spec)
                        cont()
                        del binding[spec]
                        state.trail.pop()
                return m_var_leaf_free

            def m_var_leaf(node, state, cont):
                marking = node.marking
                if type(marking) is not admits:
                    return
                bound = state.binding.get(spec)
                if bound is not None:
                    if bound == marking:
                        cont()
                elif state.bind(spec, marking):
                    cont()
                    state.undo_to(len(state.trail) - 1)
            return m_var_leaf

        def m_var(node, state, cont):
            marking = node.marking
            if type(marking) is not admits:
                return
            bound = state.binding.get(spec)
            if bound is not None:
                if bound == marking:
                    children_m(node, state, cont)
            elif state.bind(spec, marking):
                children_m(node, state, cont)
                state.undo_to(len(state.trail) - 1)
        return m_var

    if not plan_node.children:
        def m_struct_leaf(node, state, cont):
            if spec == node.marking:
                cont()
        return m_struct_leaf

    def m_struct(node, state, cont):
        if spec == node.marking:
            children_m(node, state, cont)

    rt = _rt_const_info(plan_node)
    if rt is None:
        return m_struct
    rt_vars, template = rt
    pid = id(plan_node)

    def m_rt(node, state, cont):
        binding = state.binding
        values = []
        for variable in rt_vars:
            value = binding.get(variable)
            if value is None:
                m_struct(node, state, cont)
                return
            values.append(value)
        tree = _rt_const_tree(pid, template, tuple(values), binding)
        perf.stats.const_subpattern_tests += 1
        if is_subsumed(tree, node):
            cont()
    return m_rt


def _compile_children_full(children: List[PlanNode], ineq_vars: frozenset):
    if not children:
        def tail(node, state, cont):
            cont()
        return tail
    head_m = _compile_full(children[0], ineq_vars)
    cand = _compile_candidates(children[0])
    if len(children) == 1:
        if cand is None:
            def step_last_scan(node, state, cont):
                for child in node.children:
                    head_m(child, state, cont)
            return step_last_scan

        def step_last(node, state, cont):
            for child in cand(node, state):
                head_m(child, state, cont)
        return step_last
    rest_m = _compile_children_full(children[1:], ineq_vars)
    if cand is None:
        def step_scan(node, state, cont):
            def rest():
                rest_m(node, state, cont)
            for child in node.children:
                head_m(child, state, rest)
        return step_scan

    def step(node, state, cont):
        def rest():
            rest_m(node, state, cont)
        for child in cand(node, state):
            head_m(child, state, rest)
    return step


def _compile_candidates_delta(plan_node: PlanNode):
    """``(node, state, need_new) -> candidates``, delta analogue."""
    spec = plan_node.spec
    if not isinstance(spec, _CONST_MARKINGS):
        def cand_scan(node, state, need_new):
            if need_new:
                return state.new_children(node, node.children, None)
            return node.children
        return cand_scan
    probe = plan_node.probe
    if probe is None:
        def cand_bucket(node, state, need_new):
            bucket = tree_index.child_bucket(node, spec)
            if need_new:
                return state.new_children(node, bucket, spec)
            return bucket
        return cand_bucket
    q_marking, operand = probe
    const_operand = isinstance(operand, Value)

    def cand_probe(node, state, need_new):
        value = operand if const_operand else state.binding.get(operand)
        if value is not None:
            probed = tree_index.probe_bucket(node, spec, q_marking, value)
            if need_new:
                cutoff = state.cutoff
                return [c for c in probed if c.version > cutoff]
            return probed
        bucket = tree_index.child_bucket(node, spec)
        if need_new:
            return state.new_children(node, bucket, spec)
        return bucket
    return cand_probe


def _compile_delta(plan_node: PlanNode, ineq_vars: frozenset):
    """Lower one plan node to a ``(node, state, need_new, cont)`` closure;
    ``cont`` receives the (liberal) subtree-newness flag."""
    spec = plan_node.spec
    const_tree = plan_node.const_tree
    if const_tree is not None:
        def m_const(node, state, need_new, cont):
            cutoff = state.cutoff
            if need_new and node.version <= cutoff:
                return
            perf.stats.const_subpattern_tests += 1
            if is_subsumed(const_tree, node):
                cont(node.version > cutoff)
        return m_const
    children_m = _compile_children_delta(plan_node.children, ineq_vars)
    if isinstance(spec, RegexSpec):
        def m_regex(node, state, need_new, cont):
            cutoff = state.cutoff
            if need_new and node.version <= cutoff:
                return
            for end in _regex_end_nodes(spec, node):
                end_new = end.uid > cutoff
                children_m(end, state, need_new and not end_new, end_new,
                           cont)
        return m_regex
    if isinstance(spec, TreeVar):
        def m_tree(node, state, need_new, cont):
            cutoff = state.cutoff
            if need_new and node.version <= cutoff:
                return
            state.binding[spec] = node
            state.trail.append(spec)
            cont(node.version > cutoff)
            del state.binding[spec]
            state.trail.pop()
        return m_tree
    if isinstance(spec, _NODE_VARS):
        admits = _ADMITS[type(spec)]
        unconstrained = spec not in ineq_vars
        if not plan_node.children:
            if unconstrained:
                def m_var_leaf_free(node, state, need_new, cont):
                    cutoff = state.cutoff
                    if need_new and node.version <= cutoff:
                        return
                    marking = node.marking
                    if type(marking) is not admits:
                        return
                    self_new = node.uid > cutoff
                    if need_new and not self_new:
                        return
                    binding = state.binding
                    bound = binding.get(spec)
                    if bound is not None:
                        if bound == marking:
                            cont(self_new)
                    else:
                        binding[spec] = marking
                        state.trail.append(spec)
                        cont(self_new)
                        del binding[spec]
                        state.trail.pop()
                return m_var_leaf_free

            def m_var_leaf(node, state, need_new, cont):
                cutoff = state.cutoff
                if need_new and node.version <= cutoff:
                    return
                marking = node.marking
                if type(marking) is not admits:
                    return
                self_new = node.uid > cutoff
                if need_new and not self_new:
                    return
                bound = state.binding.get(spec)
                if bound is not None:
                    if bound == marking:
                        cont(self_new)
                elif state.bind(spec, marking):
                    cont(self_new)
                    state.undo_to(len(state.trail) - 1)
            return m_var_leaf

        def m_var(node, state, need_new, cont):
            cutoff = state.cutoff
            if need_new and node.version <= cutoff:
                return
            marking = node.marking
            if type(marking) is not admits:
                return
            self_new = node.uid > cutoff
            bound = state.binding.get(spec)
            if bound is not None:
                if bound == marking:
                    children_m(node, state, need_new and not self_new,
                               self_new, cont)
            elif state.bind(spec, marking):
                children_m(node, state, need_new and not self_new,
                           self_new, cont)
                state.undo_to(len(state.trail) - 1)
        return m_var

    def m_struct(node, state, need_new, cont):
        cutoff = state.cutoff
        if need_new and node.version <= cutoff:
            return
        if spec == node.marking:
            self_new = node.uid > cutoff
            children_m(node, state, need_new and not self_new, self_new,
                       cont)

    rt = _rt_const_info(plan_node)
    if rt is None:
        return m_struct
    rt_vars, template = rt
    pid = id(plan_node)

    def m_rt(node, state, need_new, cont):
        cutoff = state.cutoff
        if need_new and node.version <= cutoff:
            return
        binding = state.binding
        values = []
        for variable in rt_vars:
            value = binding.get(variable)
            if value is None:
                m_struct(node, state, need_new, cont)
                return
            values.append(value)
        tree = _rt_const_tree(pid, template, tuple(values), binding)
        perf.stats.const_subpattern_tests += 1
        if is_subsumed(tree, node):
            # Liberal newness report, same argument as the const path:
            # ``seen`` filters re-derived assignments, so only
            # completeness is load-bearing.
            cont(node.version > cutoff)
    return m_rt


def _compile_children_delta(children: List[PlanNode], ineq_vars: frozenset):
    if not children:
        def tail(node, state, need_new, have_new, cont):
            if not need_new:
                cont(have_new)
        return tail
    head_m = _compile_delta(children[0], ineq_vars)
    cand = _compile_candidates_delta(children[0])
    is_last = len(children) == 1
    rest_m = _compile_children_delta(children[1:], ineq_vars)

    def step(node, state, need_new, have_new, cont):
        # Only the last remaining sibling inherits a hard newness
        # obligation: earlier siblings may match old data as long as a
        # later one reaches new data — the semi-naive ``Δ⋈full +
        # full⋈Δ`` split, applied inside one pattern.
        first_need = need_new and is_last

        def rest(sub_new):
            new_now = have_new or sub_new
            rest_m(node, state, need_new and not new_now, new_now, cont)
        for child in cand(node, state, first_need):
            head_m(child, state, first_need, rest)
    return step


# ----------------------------------------------------------------------
# Compilation cache and display
# ----------------------------------------------------------------------


def compile_query(query: PositiveQuery) -> QueryPlan:
    """The (cached) compiled plan of ``query``.

    Plans are immutable and depend only on the rule text, so one plan per
    query object lives for the process.
    """
    plan = getattr(query, "_compiled_plan", None)
    if plan is None:
        plan = QueryPlan(query)
        query._compiled_plan = plan  # type: ignore[attr-defined]
        perf.stats.plan_compilations += 1
        if obs_bus.ACTIVE:
            obs_bus.emit(obs_events.PLAN_COMPILED, rule=str(query),
                         atoms=[{"document": atom.document,
                                 "pattern": pattern_to_text(
                                     atom.root.to_pattern())}
                                for atom in plan.atoms])
    return plan


def warm_system(system) -> None:
    """Pre-compile the plans of every positive service of ``system``.

    Called by both engines at construction so the first invocation of a
    run pays no compile latency and ``plan_compiled`` events land before
    the run's first attempt.
    """
    for service in system.services.values():
        for query in getattr(service, "queries", []):
            compile_query(query)


def describe_plan(query: PositiveQuery,
                  documents: Optional[Mapping[str, Node]] = None) -> str:
    """Human-readable rendering of the compiled plan (CLI ``paxml plan``)."""
    plan = compile_query(query)
    lines = [f"rule: {query}"]
    if plan.always_false:
        lines.append("  always empty: an inequality compares equal constants")
    for position, atom in enumerate(plan.atoms):
        root = atom.root
        consts = sum(1 for _ in _iter_const_nodes(root))
        probes = [f"{node.spec}→{node.probe[0]}→{node.probe[1]}"
                  for node in _iter_plan_nodes(root) if node.probe is not None]
        probe = f"  probes: {', '.join(probes)}" if probes else ""
        lines.append(
            f"  atom {position}: {atom.document}/"
            f"{pattern_to_text(root.to_pattern())}"
            f"  [const subpatterns: {consts}]{probe}")
    for variable, others in sorted(plan.ineq_by_var.items(),
                                   key=lambda item: str(item[0])):
        rendered = ", ".join(str(o) for o in others)
        lines.append(f"  on binding {variable}: check != {rendered}")
    if documents is not None:
        try:
            order = plan.join_order(documents)
        except KeyError:
            order = list(range(len(plan.atoms)))
        lines.append(
            "  join order vs current documents: "
            + " → ".join(f"atom {i} ({plan.atoms[i].document})"
                         for i in order))
    return "\n".join(lines)


def _iter_const_nodes(root: PlanNode):
    stack = [root]
    while stack:
        node = stack.pop()
        if node.const_tree is not None:
            yield node
        else:
            stack.extend(node.children)


def _iter_plan_nodes(root: PlanNode):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)
