"""Fair rewriting sequences and the semantics ``[I]`` (Definitions 2.4–2.5).

The engine drives a system through a sequence of invocations
``I →v1 I1 →v2 I2 …``.  Fairness — every call that could bring new data is
eventually invoked — is what makes the limit independent of the order
(Lemma 2.1 / Theorem 2.1); the round-robin and randomised schedulers are
fair by construction.

Termination is detected exactly: when a full round over every live call
produced no change, no single invocation can change the system (nothing
changed in between, so re-running any call would reproduce its no-op), i.e.
the system *terminates at* the current state.  For divergent systems the
engine stops on a step budget and reports ``BUDGET_EXHAUSTED`` — the prefix
computed so far is a faithful finite approximation of the infinite
semantics (everything it contains is in ``[I]``).

A set of *suppressed* call nodes can be supplied to compute ``[I↓N]`` — the
limit of sequences fair for every call outside ``N`` — which Section 4's
lazy-evaluation notions are defined in terms of.

The scheduling/grafting machinery itself lives in the shared
:mod:`paxml.kernel` (this engine and the async runtime run on the same
:class:`~paxml.kernel.EvaluationKernel`); what remains here is the
sequential driver loop: pop a call, evaluate its delta, apply the graft,
record the verdict.  ``Status``/``RewriteResult``/``Step`` are deprecated
aliases of the kernel's unified :class:`~paxml.kernel.RunStatus` /
:class:`~paxml.kernel.RunResult` / :class:`~paxml.kernel.Step`.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional, Sequence

from ..kernel import EvaluationKernel, RunResult, RunStatus, Step
from ..obs import bus as obs_bus
from ..obs import events as obs_events
from ..obs.metrics import absorb_rewrite
from ..query.plan import warm_system
from ..tree.node import Node
from .invocation import StaleCallError, call_path, evaluate_call_delta
from .system import AXMLSystem

# Deprecated aliases: the unified kernel result types replaced the
# engine-specific ones; identity is preserved so ``status is
# Status.TERMINATED`` style checks keep working.
Status = RunStatus
RewriteResult = RunResult

SchedulerName = str  # "round_robin" | "random" | "lifo"


class RewritingEngine:
    """Drives fair rewriting sequences over one system.

    The engine mutates the system in place.  ``scheduler`` picks the next
    call to try:

    * ``round_robin`` — FIFO over live calls; fair.
    * ``random``      — uniformly random among live calls; fair with
      probability 1 (every call is chosen infinitely often).
    * ``lifo``        — newest call first.  *Not* fair on divergent systems
      (it can starve old calls); on terminating systems it still reaches
      the unique fixpoint, which experiment E2 demonstrates.

    ``checkpoint_every`` writes a resumable bundle to ``checkpoint_path``
    every N completed invocations (and a final one at run end); a
    bundle-constructed kernel (see :func:`paxml.kernel.resume`) can be
    passed via ``kernel`` to continue a suspended run.
    """

    def __init__(self, system: AXMLSystem,
                 scheduler: SchedulerName = "round_robin",
                 seed: Optional[int] = None,
                 suppressed: Optional[Iterable[Node]] = None,
                 record_trace: bool = False,
                 on_step: Optional[Callable[[Step], None]] = None,
                 kernel: Optional[EvaluationKernel] = None,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_path: Optional[str] = None,
                 lazy_for: Optional[Sequence] = None,
                 fire_once: bool = False):
        self.system = system
        if kernel is None:
            kernel = EvaluationKernel(system, policy=scheduler, seed=seed,
                                      suppressed=suppressed,
                                      promote_front=True)
        else:
            # Adopting a resumed kernel: this engine's historical promote
            # order puts proven no-ops ahead of the untried remainder.
            kernel.scheduler.promote_front = True
        self.kernel = kernel
        # Relevance-guided laziness: the goal set is the queries this run
        # is meant to answer; sites unneeded for them go dormant.
        if lazy_for is not None:
            kernel.enable_lazy(lazy_for)
        if fire_once:
            kernel.enable_fire_once()
        self.record_trace = record_trace
        self.on_step = on_step
        if checkpoint_every is not None and checkpoint_path is None:
            raise ValueError("checkpoint_every needs a checkpoint_path")
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        # Pre-compile every positive service's match plan so the first
        # invocation pays no compile latency (no-op when the planner is off).
        warm_system(system)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self, path: Optional[str] = None) -> str:
        """Snapshot the run to a resumable bundle (between steps)."""
        target = path or self.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path configured")
        return self.kernel.checkpoint(target, engine="sequential")

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------

    def run(self, max_steps: Optional[int] = None) -> RunResult:
        """Rewrite fairly until fixpoint or budget; see :class:`RunStatus`.

        ``max_steps`` bounds the number of *invocations attempted* (stale
        pops do not count), cumulatively across a checkpoint/resume chain.
        ``None`` means unbounded — only safe on systems known to terminate.
        """
        kernel = self.kernel
        scheduler = kernel.scheduler
        trace: List[Step] = []
        started = time.perf_counter()
        if obs_bus.ACTIVE:
            obs_bus.emit(obs_events.RUN_STARTED, engine="sequential",
                         documents=sorted(self.system.documents),
                         services=sorted(self.system.services))

        def finish(status: RunStatus) -> RunResult:
            if self.checkpoint_every is not None:
                self.checkpoint()
            result = RunResult(
                status, steps=kernel.steps, productive=kernel.productive,
                invocations_by_service=dict(kernel.invocations_by_service),
                trace=trace, attempts=kernel.steps,
                duration_seconds=time.perf_counter() - started,
                checkpoints=kernel.checkpoints,
                resumed_from=kernel.resumed_from)
            absorb_rewrite(result)
            if obs_bus.ACTIVE:
                obs_bus.emit(obs_events.RUN_FINISHED, engine="sequential",
                             status=status.value, steps=kernel.steps,
                             productive=kernel.productive,
                             seconds=result.duration_seconds)
            return result

        while True:
            # The system terminates exactly when the fresh queue is empty:
            # every live call is then a proven no-op on the unchanged state,
            # so re-running any of them would reproduce its no-op.  (A plain
            # "streak ≥ queue length" test is only sound for round-robin —
            # LIFO/random can starve calls.)
            if not scheduler.has_fresh():
                # Quiescence with dormant sites remaining is *weak
                # q-stability* (Section 4): every registered query's
                # answer is complete, but the suppressed/dormant calls
                # were never proven no-ops — so the run stabilized
                # rather than terminated.
                return finish(RunStatus.TERMINATED
                              if not scheduler.suppressed_uids
                              and not scheduler.dormant_count()
                              else RunStatus.STABILIZED)
            if max_steps is not None and kernel.steps >= max_steps:
                return finish(RunStatus.BUDGET_EXHAUSTED)

            document, node = scheduler.pop()
            service_name = node.marking.name  # type: ignore[union-attr]
            if obs_bus.ACTIVE:
                obs_bus.emit(obs_events.ATTEMPT_STARTED,
                             document=document.name, service=service_name,
                             site=node.uid, attempt=1)
            step_started = time.perf_counter()
            try:
                path = call_path(document, node)
                answers = evaluate_call_delta(self.system, node, path[-2])
            except StaleCallError:
                scheduler.forget(node)
                if obs_bus.ACTIVE:
                    obs_bus.emit(obs_events.STALE_CALL,
                                 document=document.name, service=service_name,
                                 site=node.uid)
                continue
            kernel.note_invocation(service_name)
            inserted = kernel.apply_graft(document, node, path, [answers])
            step_seconds = time.perf_counter() - step_started
            # The call stays live either way: future growth of the documents
            # can make it productive again (the pull mode of Section 2.2) —
            # unless the fire-once policy just proved it complete (its
            # feeders are quiesced and this verdict is for the current
            # state, so no future growth can reach it).
            if kernel.maybe_retire(document, node):
                pass
            elif inserted:
                scheduler.requeue((document, node))
            else:
                scheduler.mark_tried((document, node))
            if obs_bus.ACTIVE:
                obs_bus.emit(obs_events.ATTEMPT_FINISHED,
                             document=document.name, service=service_name,
                             site=node.uid, attempt=1, seconds=step_seconds,
                             answers=len(answers))

            step = Step(kernel.steps - 1, document.name, service_name,
                        bool(inserted), len(inserted),
                        started=step_started, seconds=step_seconds)
            if self.record_trace:
                trace.append(step)
            if self.on_step is not None:
                self.on_step(step)
            if (self.checkpoint_every is not None
                    and kernel.steps % self.checkpoint_every == 0):
                self.checkpoint()


def materialize(system: AXMLSystem,
                max_steps: Optional[int] = 100_000,
                scheduler: SchedulerName = "round_robin",
                seed: Optional[int] = None,
                lazy_for: Optional[Sequence] = None,
                fire_once: bool = False) -> RunResult:
    """Convenience wrapper: rewrite ``system`` in place toward ``[I]``.

    Returns the run summary; on :data:`RunStatus.BUDGET_EXHAUSTED` the
    system holds a finite prefix of its (then necessarily infinite or very
    large) semantics.  With ``lazy_for`` the run drives only the calls
    weakly relevant to those queries (the result then answers *them*
    exactly — ``STABILIZED`` — without computing all of ``[I]``).
    """
    engine = RewritingEngine(system, scheduler=scheduler, seed=seed,
                             lazy_for=lazy_for, fire_once=fire_once)
    return engine.run(max_steps=max_steps)


def materialize_excluding(system: AXMLSystem, suppressed: Iterable[Node],
                          max_steps: Optional[int] = 100_000,
                          scheduler: SchedulerName = "round_robin",
                          seed: Optional[int] = None) -> RunResult:
    """Compute ``[I↓N]`` in place: fair for every call outside ``suppressed``."""
    engine = RewritingEngine(system, scheduler=scheduler, seed=seed,
                             suppressed=suppressed)
    return engine.run(max_steps=max_steps)
