"""Continuous-query fan-out: one shared answer log, N cursors.

The exactness contract (checked by the oracle suite): for every
subscriber, *initial answers + pushed deltas*, reduced, equals the
from-scratch evaluation of its query against the tenant's current
documents — at every graft prefix.  Monotonicity (Proposition 3.1) is
what makes an append-only stream sufficient: answers never retract.

The cost contract: landing one graft refreshes each registered query
once (:meth:`ContinuousQueryLog.refresh` — a semi-naive delta join
against the data newer than the query's cutoff), *independent of the
subscriber count*.  Subscribers share the query's log and each hold a
plain integer cursor; delivery is a list slice.  Fan-out overhead per
graft is therefore O(#queries · delta), plus one wake-up pulse per
query that actually gained answers.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..obs import bus as obs_bus
from ..obs import events as obs_events
from ..obs import trace as obs_trace
from ..query.incremental import ContinuousQueryLog
from ..query.parser import parse_query
from ..query.rule import PositiveQuery
from ..tree.node import Node


# Subscription ids are unique within the process, not per tenant: one
# connection may carry subscriptions of several tenants, and the server
# keys its per-connection subscriptions and push pumps by id.
_SUB_IDS = itertools.count(1)


class SubscriptionError(ValueError):
    """The query cannot be served as a subscription."""


class Subscription:
    """One subscriber's cursor into a shared :class:`ContinuousQueryLog`."""

    def __init__(self, hub: "SubscriptionHub", query_key: str, sub_id: int,
                 initial: List[str]):
        self.hub = hub
        self.query_key = query_key
        self.sub_id = sub_id
        self.initial = initial          # answers known at registration
        self.cursor = len(initial)      # next unread log position
        self.closed = False
        # Sidecar of the last drain: per-answer causal trace wire dicts
        # and the perf_counter stamp of the oldest drained answer (what
        # the server's delta-push SLO measures end-to-end latency from).
        self.last_traces: List[Optional[dict]] = []
        self.last_stamp: Optional[float] = None

    def drain(self) -> List[str]:
        """Every answer past the cursor, without waiting."""
        log = self.hub._logs[self.query_key]
        self.cursor, fresh, traces, stamps = log.read_traced(self.cursor)
        self.last_traces = traces
        self.last_stamp = min(stamps) if stamps else None
        return fresh

    async def next_batch(self, timeout: Optional[float] = None
                         ) -> Optional[List[str]]:
        """Wait for answers past the cursor; ``None`` on timeout/close.

        Grabs the query's current wake-up event *before* reading the log:
        a pulse that lands between the read and the wait targets the
        grabbed event, so no delta can slip through unobserved.
        """
        while not self.closed:
            event = self.hub._wakeup(self.query_key)
            fresh = self.drain()
            if fresh:
                return fresh
            try:
                if timeout is None:
                    await event.wait()
                else:
                    await asyncio.wait_for(event.wait(), timeout)
            except asyncio.TimeoutError:
                return None
        return None

    def close(self) -> None:
        self.closed = True
        self.hub._drop(self)


class SubscriptionHub:
    """All continuous queries of one tenant (see module docstring)."""

    def __init__(self, tenant: str):
        self.tenant = tenant
        self._logs: Dict[str, ContinuousQueryLog] = {}
        self._events: Dict[str, asyncio.Event] = {}
        self._subs: Dict[int, Subscription] = {}
        self._refcount: Dict[str, int] = {}
        # Fired whenever the *set* of registered queries changes (first
        # subscriber to a query, or last one gone).  A lazy session hooks
        # this to reseed its relevance tracker — the tenant's continuous
        # queries ARE its goal set.
        self.on_registry_change: Optional[Callable[[], None]] = None

    # -- registration ----------------------------------------------------

    def _parse(self, query_text: str,
               document_names) -> Tuple[str, PositiveQuery]:
        query = parse_query(query_text)
        unknown = [name for name in query.document_names()
                   if name not in document_names]
        if unknown:
            raise SubscriptionError(
                f"query reads {sorted(unknown)} — continuous queries may "
                "only read the tenant's documents (no input/context)")
        return str(query), query

    def subscribe(self, query_text: str, environment: Mapping[str, Node]
                  ) -> Subscription:
        """Register a subscriber; its ``initial`` is the current result.

        Queries are shared by their canonical rule text: the second
        subscriber to a query rides the first one's log and evaluator.
        """
        key, query = self._parse(query_text, environment.keys())
        log = self._logs.get(key)
        if log is None:
            log = ContinuousQueryLog(query, (self.tenant, key))
            self._logs[key] = log
            self._refcount[key] = 0
        log.refresh(environment)
        sub = Subscription(self, key, next(_SUB_IDS), list(log.answers))
        self._subs[sub.sub_id] = sub
        self._refcount[key] += 1
        if self._refcount[key] == 1 and self.on_registry_change is not None:
            self.on_registry_change()
        if obs_bus.ACTIVE:
            obs_bus.emit(obs_events.SUBSCRIPTION_OPENED, tenant=self.tenant,
                         query=key, initial=len(sub.initial))
        return sub

    def _drop(self, sub: Subscription) -> None:
        if self._subs.pop(sub.sub_id, None) is None:
            return
        remaining = self._refcount.get(sub.query_key, 1) - 1
        self._refcount[sub.query_key] = remaining
        if remaining <= 0:
            # Last subscriber gone: retire the query (its evaluator holds
            # document references; a re-subscribe starts a fresh log).
            self._logs.pop(sub.query_key, None)
            self._events.pop(sub.query_key, None)
            self._refcount.pop(sub.query_key, None)
            if self.on_registry_change is not None:
                self.on_registry_change()

    def queries(self) -> List[PositiveQuery]:
        """The parsed queries currently registered (the lazy goal set)."""
        return [log.query for log in self._logs.values()]

    def get(self, sub_id: int) -> Optional[Subscription]:
        return self._subs.get(sub_id)

    def subscriber_count(self) -> int:
        return len(self._subs)

    # -- the graft fan-in ------------------------------------------------

    def on_graft(self, environment: Mapping[str, Node]) -> int:
        """Refresh every registered query after a graft landed.

        Called synchronously from the kernel's graft hook — the
        single-writer apply step — so each refresh sees a consistent
        post-graft state.  Pulses the wake-up of each query that gained
        answers; returns how many queries did.
        """
        changed = 0
        ctx = obs_trace.current()
        for key, log in self._logs.items():
            fresh = log.refresh(environment)
            if fresh:
                changed += 1
                self._pulse(key)
                if obs_bus.ACTIVE:
                    labels: Dict[str, object] = {}
                    if ctx is not None:
                        labels["trace_id"] = ctx.trace_id
                        labels["span_id"] = ctx.span_id
                    obs_bus.emit(obs_events.SUBSCRIPTION_DELTA,
                                 tenant=self.tenant, query=key,
                                 answers=len(fresh), **labels)
        return changed

    # -- suspend/resume --------------------------------------------------

    def detach(self) -> Dict[str, List[str]]:
        """Drop evaluator caches (they pin the suspended trees); keep the
        logs and cursors.  Returns ``{query text: answers}`` for spooling."""
        for log in self._logs.values():
            log.reset_evaluator()
        return {key: list(log.answers) for key, log in self._logs.items()}

    def reattach(self, environment: Mapping[str, Node]) -> None:
        """Re-prime every query against resumed documents.

        The fresh evaluators re-derive the full current result; the logs'
        seen-filters drop everything already streamed, so subscribers see
        exactly the answers grafted while the tenant was down (none, if
        it was truly idle) and no duplicates.
        """
        for key, log in self._logs.items():
            if log.refresh(environment):
                self._pulse(key)

    def preload(self, spooled: Mapping[str, List[str]],
                document_names) -> None:
        """Rebuild query logs from a spool manifest (server restart)."""
        for query_text, answers in spooled.items():
            key, query = self._parse(query_text, document_names)
            log = self._logs.get(key)
            if log is None:
                log = self._logs[key] = ContinuousQueryLog(
                    query, (self.tenant, key))
                self._refcount.setdefault(key, 0)
            log.preload(answers)
        if spooled and self.on_registry_change is not None:
            self.on_registry_change()

    # -- wake-ups --------------------------------------------------------

    def _wakeup(self, key: str) -> asyncio.Event:
        event = self._events.get(key)
        if event is None:
            event = self._events[key] = asyncio.Event()
        return event

    def _pulse(self, key: str) -> None:
        event = self._events.get(key)
        if event is not None:
            event.set()
        # Future waiters grab a fresh, unset event.
        self._events[key] = asyncio.Event()
