"""Single service-call invocation semantics (Section 2.2).

Invoking a function node ``v`` marked ``f``:

1. bind the reserved names — ``θ(input)`` is a fresh ``input``-rooted tree
   over copies of ``v``'s parameter subtrees, ``θ(context)`` is the subtree
   rooted at ``v``'s parent — and bind each declared document name to its
   current tree;
2. evaluate ``I(f)`` on θ, obtaining a forest;
3. graft (copies of) the forest's trees as *siblings of v*, then reduce.

The grafting step keeps the "documents stay reduced" invariant
incrementally: each answer is inserted into the antichain of the parent's
children (dropping it when an existing sibling subsumes it, evicting
siblings it subsumes), and the parent's growth is propagated up the
ancestor chain.  The step is *productive* — ``I →v I'`` with ``I ≢ I'`` —
exactly when at least one answer strictly enlarged the parent's subtree,
which the antichain insertion detects for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import perf
from ..tree import index as tree_index
from ..tree import store as tree_store
from ..tree.antichain import BitsetAntichain
from ..tree.document import CONTEXT, INPUT, Document, Forest
from ..tree.node import Label, Node
from ..tree.reduction import antichain_insert
from ..tree.subsumption import is_subsumed
from .system import AXMLSystem


class StaleCallError(RuntimeError):
    """The call node is no longer part of its document.

    Reduction may prune a call node when a sibling subtree subsumes the
    subtree containing it; the rewriting engine treats such nodes as gone.
    """


@dataclass
class InvocationResult:
    """Outcome of one invocation.

    ``answers`` carries what the service *delivered* for this invocation —
    under the incremental engine that is the delta since the site's previous
    invocation (the full snapshot answer on a first invocation), which is
    exactly what grafting needs: answers delivered earlier are already in
    the document or subsumed by it.
    """

    changed: bool
    answers: Forest
    inserted: List[Node] = field(default_factory=list)

    @property
    def inserted_count(self) -> int:
        return len(self.inserted)


def find_path(root: Node, target: Node) -> Optional[List[Node]]:
    """The root-to-target node path (inclusive), or None if unreachable.

    An O(depth) walk up the target's parent pointers, verifying at each hop
    that the node is still among its recorded parent's children — reduction
    evicts pruned subtrees from the child list but leaves their (now stale)
    parent pointers behind, so the membership check is what detects a node
    that is no longer part of the tree.
    """
    path = [target]
    node = target
    while node is not root:
        parent = node.parent
        if parent is None or node not in parent.children:
            return None
        path.append(parent)
        node = parent
    path.reverse()
    return path


def build_input_tree(call_node: Node) -> Node:
    """``θ(input)``: an ``input``-rooted tree over copies of the parameters."""
    return Node(Label(INPUT), [child.copy() for child in call_node.children])


# ``θ(input)`` cache: the input tree depends only on the call's parameter
# subtrees, whose joint state the call node's version stamp captures.
# Reusing one tree object while the parameters are unchanged is what lets
# the incremental matcher see ``input``-atoms as *unchanged* across
# re-invocations (a rebuilt copy would consist of brand-new nodes and force
# a full re-match every time).
_INPUT_CACHE: Dict[int, Tuple[int, Node]] = {}
_INPUT_CACHE_MAX = 100_000


def _input_tree_for(call_node: Node) -> Node:
    entry = _INPUT_CACHE.get(call_node.uid)
    if entry is not None and entry[0] == call_node.version:
        perf.stats.input_tree_hits += 1
        return entry[1]
    perf.stats.input_tree_misses += 1
    tree = build_input_tree(call_node)
    if len(_INPUT_CACHE) >= _INPUT_CACHE_MAX:
        _INPUT_CACHE.clear()
    _INPUT_CACHE[call_node.uid] = (call_node.version, tree)
    return tree


perf.register_cache(_INPUT_CACHE.clear)


def call_path(document: Document, call_node: Node) -> List[Node]:
    """Locate a live call node; raises :class:`StaleCallError` otherwise."""
    if not call_node.is_function:
        raise TypeError(f"{call_node!r} is not a function node")
    path = find_path(document.root, call_node)
    if path is None:
        raise StaleCallError(
            f"call !{call_node.marking.name} is no longer part of "  # type: ignore[union-attr]
            f"document {document.name!r}"
        )
    if len(path) < 2:
        # Cannot happen for validated documents: roots are never function
        # nodes (Definition 2.1(ii)).
        raise StaleCallError("a document root cannot be invoked")
    return path


def evaluate_call(system: AXMLSystem, call_node: Node, parent: Node) -> Forest:
    """Steps 1–2 of an invocation: bind θ and evaluate the service."""
    service = system.services[call_node.marking.name]  # type: ignore[union-attr]
    environment: Dict[str, Node] = dict(system.environment())
    environment[INPUT] = build_input_tree(call_node)
    environment[CONTEXT] = parent
    answers = service.evaluate(environment)
    _validate_answers(service.name, answers)
    return answers


def evaluate_call_delta(system: AXMLSystem, call_node: Node,
                        parent: Node) -> Forest:
    """Like :func:`evaluate_call` but with *delta* semantics per call site.

    Returns only answers not previously delivered for this call node (all
    of them on the first invocation); see :meth:`Service.evaluate_delta`.
    """
    service = system.services[call_node.marking.name]  # type: ignore[union-attr]
    environment: Dict[str, Node] = dict(system.environment())
    environment[INPUT] = _input_tree_for(call_node)
    environment[CONTEXT] = parent
    answers = service.evaluate_delta(environment, site=call_node.uid)
    _validate_answers(service.name, answers)
    return answers


def _validate_answers(service_name: str, answers: Forest) -> None:
    for answer in answers:
        if answer.is_function:
            raise ValueError(
                f"service {service_name!r} returned a tree rooted at a call "
                "node; answers must be documents (Def. 2.1(ii))"
            )


def graft_trees(path: List[Node], trees: List[Node]) -> List[Node]:
    """Insert ``trees`` as siblings of the call at ``path[-1]``.

    Thin call-site spelling of :func:`graft_under`: the grafts become
    children of the call's parent, so the call node itself is sliced off
    the path before delegating.
    """
    return graft_under(path[:-1], trees)


def graft_under(parent_path: List[Node], trees: List[Node]) -> List[Node]:
    """The single graft mutation primitive: insert ``trees`` as children
    of ``parent_path[-1]``, *without copying them first*.

    ``parent_path`` is the root-to-parent node path (inclusive).  Every
    document mutation during a run flows through here — the engines via
    :meth:`paxml.kernel.EvaluationKernel.apply_graft` (which adds event
    emission and graft logging on top), external injections via
    :meth:`paxml.kernel.EvaluationKernel.apply_external` (the serve
    layer's client-driven grafts), checkpoint replay directly (its
    wire-restored trees must keep their original uids, so no copy).
    Owning the cache maintenance (the index's and the store's
    ``note_graft``) and the reduced-invariant restoration in one place is
    what keeps them wired exactly once.
    """
    parent = parent_path[-1]
    inserted: List[Node] = []
    if len(trees) > 1 and len(parent.children) >= 32:
        # Batch graft against a wide sibling set: index the (already
        # reduced) children once, then each insert touches only the
        # bitset-posting candidates instead of scanning every sibling.
        sibling_index = BitsetAntichain.from_antichain(parent.children)
        before = len(parent.children)
        for graft in trees:
            if sibling_index.insert(graft):
                graft.parent = parent
                inserted.append(graft)
        if inserted or len(sibling_index) != before:
            parent.children[:] = sibling_index.items()
    else:
        for graft in trees:
            if antichain_insert(parent.children, graft):
                graft.parent = parent
                inserted.append(graft)
    if inserted:
        # Pre-touch versions let the caches tell entries that were current
        # before this graft (patchable in place) from ones an earlier
        # untracked mutation or a twin left stale (rebuilt at read time).
        pre_versions = [node.version for node in parent_path]
        # One stamp for the whole graft batch: every ancestor's subtree
        # gained content, which is what delta matching keys on.
        parent.touch()
        tree_index.note_graft(parent, inserted, pre_versions[-1])
        tree_store.note_graft(parent_path, inserted, pre_versions)
        _propagate_growth(parent_path)
    return inserted


def graft_answers(path: List[Node], answers: Forest) -> List[Node]:
    """Step 3: graft answer copies as siblings of the call at ``path[-1]``.

    Returns the trees actually inserted (answers subsumed by existing
    siblings are dropped, exactly as reduction would drop them).
    """
    return graft_trees(path, [answer.copy() for answer in answers])


def new_answers(parent: Node, answers: Forest) -> List[Node]:
    """The answers that *would* be inserted, without mutating anything."""
    return [
        answer for answer in answers
        if not any(is_subsumed(answer, sibling) for sibling in parent.children)
    ]


def invoke(system: AXMLSystem, document: Document, call_node: Node) -> InvocationResult:
    """Invoke one service call in place; see the module docstring.

    Raises :class:`StaleCallError` when the node was pruned away and
    :class:`KeyError` when the call names an undeclared service.
    """
    path = call_path(document, call_node)
    answers = evaluate_call_delta(system, call_node, path[-2])
    inserted = graft_answers(path, answers)
    return InvocationResult(changed=bool(inserted), answers=answers, inserted=inserted)


def _propagate_growth(parent_path: List[Node]) -> None:
    """Restore the reduced invariant along the ancestor chain.

    Exactly one child of each ancestor grew (the next node on the path;
    ``parent_path[-1]`` is the node that gained children).  A grown
    subtree can newly *dominate* siblings but can never become
    dominated (it was maximal among its siblings and only gained content),
    so at every level it suffices to delete siblings the grown child now
    subsumes.  Every ancestor must be checked — a subtree growing deep down
    can make siblings arbitrarily high up redundant.
    """
    for depth in range(len(parent_path) - 1, 0, -1):
        ancestor, grown = parent_path[depth - 1], parent_path[depth]
        survivors = [
            child for child in ancestor.children
            if child is grown or not is_subsumed(child, grown)
        ]
        if len(survivors) != len(ancestor.children):
            ancestor.children = survivors
